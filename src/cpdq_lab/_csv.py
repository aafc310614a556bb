"""CSV tables of float columns, every value written as "%.17g" would write it.

write_csv is the one entry point; the rest is its numpy kernel and the
split of a long table onto two CPUs.  The module reads no other part of the
package, so a forked child that formats half a table runs only this code.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np


# Every table goes out in blocks of about _CSV_BLOCK_VALUES formatted
# values, each formatted by the numpy kernel (_csv_slots), whose fixed cost
# is about 90 us a call.  At 2**13 rather than 2**12 a trajectory's three
# 62,833-row series tables take 186 calls instead of 369; on one CPU of a
# 2-vCPU x86_64 host they were written in 0.35 s instead of 0.43 s.  A
# block's arrays peak near 1 MB (tracemalloc, 8-column series) because
# each block is formatted in its own call and the kernel frees its inputs
# before its layout.  Peak RSS of a process that runs a workload's
# scenarios three times, against 2**12: trajectory -0.5 MB, wave +0.0 to
# +0.3 MB, piston unchanged.
_CSV_BLOCK_VALUES = 2 ** 13
# A table of at least _CSV_SPLIT_VALUES formatted values (rows times columns
# that are not literals) is formatted in two halves on two CPUs.  The split
# costs about 5-7 ms (fork, the child's start, appending its half) and
# saves half of the kernel's time, so it pays from about 50k-65k values on
# a 2-vCPU x86_64 host; no wave or piston table reaches 2**16 values.  It
# assumes the second usable CPU is free: on a loaded host the two halves
# can take longer than one CPU would.
_CSV_SPLIT_VALUES = 2 ** 16


def _csv_literal(c: np.ndarray) -> str | None:
    """The "%.17g" text of a column whose values all share one float64 bit
    pattern, else None.

    Bit patterns keep 0.0 and -0.0, and NaNs of other sign or payload,
    apart, so a column of both is formatted per value.
    """
    bits = c.view(np.int64)
    if len(bits) and (bits == bits[0]).all():
        return "%.17g" % float(c[0])
    return None


def _split26(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == x, each with at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _pow10(s: int) -> tuple[float, float]:
    """10**s as a double-double h + l: h the double nearest 10**s, l the
    double nearest 10**s - h (int / int is correctly rounded)."""
    num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
    h = num / den
    hn, hd = h.as_integer_ratio()
    return h, (num * hd - hn * den) / (den * hd)


# 10**s for -84 <= s <= 116 (at index s + 84 = 100 - k for s = 16 - k) as
# a double-double, its head split for Dekker's product; the tail is 0
# where 10**s is a double, 0 <= s <= 22.  The ASCII digits of 0000..9999
# as one uint32 each, and the exponent texts e-99..e+99.
_POW10, _POW10_TAIL = np.array([_pow10(s) for s in range(-84, 117)]).T
_POW10_HI, _POW10_LO = _split26(_POW10)
_DIGIT_QUADS = np.frombuffer(
    (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).tobytes(),
    np.uint32)
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-99, 100)),
                           np.uint8).reshape(-1, 4)
# _CSV_KEEP[n] keeps the first n bytes of a 24-byte slot
_CSV_KEEP = np.where(np.arange(24) < np.arange(25)[:, None], 0xFF,
                     0).astype(np.uint8).view(np.uint64)
# where 10**s is not a double, x * 10**s carries a rounding error below
# 1e-14; a value within _NEAR_HALF of a half is left to `%`
_NEAR_HALF = 1e-6
# the k at which the groups of _csv_slots start: fixed notation for
# -4 <= k <= 16, and 100 marks the values left to `%`
_CSV_GROUPS = np.array([*range(-4, 18), 100], np.int8)


def _rounded17(x: np.ndarray, k: np.ndarray, exact: bool) -> np.ndarray:
    """x * 10**(16 - k) rounded half-to-even to an integer D, for 0 < x and
    |k| <= 100, or 0 where D cannot be told safely.

    Dekker's two-product gives p = fl(x * h) and its error e exactly,
    p + e == x * h, for the double h nearest 10**s, s = 16 - k.  Where
    p >= 2**53 it is an even integer, so p plus e rounded half-to-even is
    x * h rounded so.  `exact` says that -5 <= k <= 16: there h == 10**s,
    and no double lies within 5e-17 of 10**k below it, so a D of 10**16
    means x >= 10**k.  Otherwise x times the tail 10**s - h is added to e,
    which then carries a rounding error below 1e-14.  D is 0 where e lies
    within _NEAR_HALF of a half and the tail is not 0 (an exact tie needs
    no tail: x * 10**s == m + 1/2 would make 5**s divide a power of two),
    and where D is 10**16 but x < 10**k, whose exponent is k - 1.
    """
    i = 100 - k.astype(np.intp)
    p = x * _POW10.take(i)
    xh, xl = _split26(x)
    e = xh * _POW10_HI.take(i) - p
    e += xh * _POW10_LO.take(i)
    e += xl * _POW10_HI.take(i)
    e += xl * _POW10_LO.take(i)
    if exact:
        return p.astype(np.int64) + np.rint(e).astype(np.int64)
    tail = _POW10_TAIL.take(i)
    e += x * tail
    r = np.rint(e)
    d = p.astype(np.int64) + r.astype(np.int64)
    d[((np.abs(e - r) >= 0.5 - _NEAR_HALF) & (tail != 0))
      | ((d == 10 ** 16) & (p - 1e16 + e < 0))] = 0
    return d


def _digits17(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each d in [1e16, 1e17): its first digit as an ASCII byte and its
    other 16 digits as a row of ASCII bytes."""
    hi = d // 10 ** 8
    y = np.stack([hi, d - hi * 10 ** 8], axis=1).astype(np.uint32)
    lead = y[:, 0] // 10 ** 8
    y[:, 0] -= lead * 10 ** 8
    # each 8-digit half as two 4-digit quarters, in reading order
    q = y // 10 ** 4
    quads = _DIGIT_QUADS.take(np.stack([q, y - q * 10 ** 4], axis=-1,
                                       dtype=np.intp).reshape(-1, 4))
    lead = (lead + ord("0")).astype(np.uint8)
    return lead, quads.view(np.uint8).reshape(-1, 16)


def _csv_slots(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's "%.17g" text in a NUL-padded 24-byte slot, byte 23 left
    free for a separator, and the mask of the values left to `%`, whose
    slots hold "%.17g" itself.

    Zeros, and the x with 1e-99 <= |x| < 1e100, are written here.
    k = floor(log10 |x|) gives the scale 10**(16 - k) that puts
    |x| * 10**(16 - k) in [1e16, 1e17); rounded half-to-even (_rounded17)
    it is the 17-digit integer D that "%.17g" prints.  For -4 <= k <= 16
    the text is fixed notation, with the point after digit k; otherwise it
    is d.dddddddddddddddde±XX.  Trailing fraction zeros, and then a bare
    point, are dropped.  NaNs, infinities, subnormals, three-digit
    exponents and the rare value that _rounded17 cannot tell are left to
    `%`.
    """
    x = np.abs(v)
    with np.errstate(invalid="ignore"):
        idx = ((x >= 1e-99) & (x < 1e100)).nonzero()[0]
    x = x[idx]
    k = np.floor(np.log10(x))
    np.maximum(k, -99, out=k)
    np.minimum(k, 99, out=k)
    k = k.astype(np.int8)
    # sorted by k, a block tells from its first and last k whether it is
    # exact for _rounded17
    order = np.argsort(k, kind="stable")
    idx, x, k = idx[order], x[order], k[order]
    d = _rounded17(x, k, not len(k) or (k[0] >= -5 and k[-1] <= 16))
    # log10 can miss k by one next to a power of ten, and rounding can carry
    # D to 10**17: k then moves by one and D is rounded again; a D still
    # outside [1e16, 1e17), or a k outside [-99, 99], is left to `%`, and
    # the block is sorted again
    moved = ((d < 10 ** 16) | (d >= 10 ** 17)).nonzero()[0]
    if moved.size:
        k[moved] += np.where(d[moved] < 10 ** 16, -1, 1).astype(np.int8)
        d[moved] = _rounded17(x[moved], k[moved], False)
        k[moved[(d[moved] < 10 ** 16) | (d[moved] >= 10 ** 17)
                | (np.abs(k[moved]) > 99)]] = 100
        order = np.argsort(k, kind="stable")
        idx, d, k = idx[order], d[order], k[order]
    # fixed-notation group j is [bounds[j + 4], bounds[j + 5]); scientific
    # notation is [0, bounds[0]) and [bounds[21], bounds[22]), laid out and
    # cut as k = 0, with its exponent written after the cut
    bounds = np.searchsorted(k, _CSV_GROUPS).tolist()
    idx, d, k = idx[:bounds[22]], d[:bounds[22]], k[:bounds[22]]
    scientific = [(lo, hi, _EXPONENTS.take(k[lo:hi].astype(np.intp) + 99,
                                           axis=0))
                  for lo, hi in ((0, bounds[0]), (bounds[21], bounds[22]))
                  if lo < hi]
    groups = [*zip(bounds[:21], bounds[1:22], range(-4, 17))]
    for lo, hi, _ in scientific:
        k[lo:hi] = 0
        groups.append((lo, hi, 0))
    lead, tail = _digits17(d)
    # the block's peak memory comes in the layout below; what it no longer
    # needs goes first
    del order, x, d
    # byte 0 of a slot is left for the sign; the text starts at byte 1: for
    # k >= 0 the k + 1 integer digits, the point and the 16 - k fraction
    # digits; for k < 0 "0.", -k - 1 zeros and the 17 digits
    s = np.zeros((len(lead), 24), np.uint8)
    for lo, hi, j in groups:
        if lo == hi:
            continue
        t, first, digits = s[lo:hi], lead[lo:hi], tail[lo:hi]
        if j >= 0:
            t[:, 1] = first
            t[:, 2:j + 2] = digits[:, :j]
            t[:, j + 2] = ord(".")
            t[:, j + 3:19] = digits[:, j:]
        else:
            t[:, 1:2 - j] = ord("0")
            t[:, 2] = ord(".")
            t[:, 2 - j] = first
            t[:, 3 - j:19 - j] = digits
    # a text ends after its last digit, byte 18 - min(k, 0); where its 16 - k
    # fraction digits end in zeros they are cut, and then a bare point (at
    # k = 16 the point written at byte 18 is cut so).  In the 8-digit words
    # of the last 16 digits a "0" becomes a zero byte; the zero bytes above
    # a word's highest nonzero byte are trailing zeros (a byte is at most
    # 9, so the float keeps the byte length of the word).
    words = tail.view(np.uint64) ^ 0x3030303030303030
    nbytes = (np.frexp(words.astype(float))[1] + 7) // 8
    zeros = np.where(nbytes[:, 1] > 0, 8 - nbytes[:, 1], 16 - nbytes[:, 0])
    cut = np.minimum(zeros, 16 - k)
    end = 19 - np.minimum(k, 0) - cut - (cut == 16 - k)
    words = s.view(np.uint64)
    words &= _CSV_KEEP.take(end, axis=0)
    for lo, hi, exponent in scientific:
        s[lo:hi, 19:23] = exponent
    out = np.zeros((len(v), 24), np.uint8)
    out.view("V24")[idx, 0] = s.view("V24")[:, 0]
    zero = v == 0
    out[zero, 1] = ord("0")
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    rest = ~zero
    rest[idx] = False
    out[rest, :5] = np.frombuffer(b"%.17g", np.uint8)
    return out, rest


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV, every value as float in %.17g.

    A constant column (one float64 bit pattern, _csv_literal) is formatted
    once and written as a literal; every other column is formatted per
    value.  The table goes out in blocks of about _CSV_BLOCK_VALUES
    values, and of at least one row.  A block is laid out as rows of
    fixed-width NUL-padded slots beside the literals and compacted by one
    bytes.translate: the elementwise numpy kernel _csv_slots writes the
    correctly rounded 17 digits of "%.17g" exactly for zeros and for
    1e-99 <= |x| < 1e100, in fixed or scientific notation, and leaves the
    other values (subnormals, three-digit exponents, infinities, NaNs and
    the rare value next to a rounding tie) to one `%` over the block, the
    same conversion as "%.17g" % float(x).  The whole table is never
    stacked.  A header whose length is not the number of columns, or
    columns of unequal length, raise ValueError naming `path`.

    A table of at least _CSV_SPLIT_VALUES formatted values, on a host with
    os.fork and two usable CPUs, is formatted in two contiguous halves at
    once: a forked child writes the second half into an unlinked temporary
    file beside `path` while this process writes the first half, then this
    process reaps the child and appends the file's bytes.  The child runs
    only the block loop, elementwise numpy and file writes (no import, no
    BLAS, no print), so a BLAS thread in this process cannot hold a lock
    it needs, and it leaves by os._exit, so it never returns into the
    caller or flushes inherited buffers; if it fails, OSError names
    `path`.  Both halves run the same loop, so the bytes do not depend on
    the split.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(header) != len(cols):
        raise ValueError(f"{path}: {len(header)} header names for "
                         f"{len(cols)} columns")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length "
                         f"{sorted(lengths)}")
    n_rows = max(lengths, default=0)
    literals = [_csv_literal(c) for c in cols]
    values = [c for c, text in zip(cols, literals) if text is None]
    k = len(values)
    step = max(1, _CSV_BLOCK_VALUES // max(1, len(cols)))
    fixed = [None if text is None else np.frombuffer(f"{text},".encode(),
                                                     np.uint8)
             for text in literals]

    def rows(i: int, m: int) -> bytes:
        # rows i..i + m - 1; a function, so that one block's arrays are
        # freed before the next block is formatted
        v = np.column_stack([c[i:i + m] for c in values]
                            or [np.empty((m, 0))]).reshape(-1)
        slots, rest = _csv_slots(v)
        slots[:, 23] = ord(",")
        slots = iter(slots.reshape(m, -1, 24).swapaxes(0, 1))
        block = np.concatenate(
            [next(slots) if literal is None
             else np.broadcast_to(literal, (m, len(literal)))
             for literal in fixed], axis=1)
        block[:, -1] = ord("\n")
        text = block.tobytes().translate(None, b"\0")
        if rest.any():
            text %= tuple(v[rest].tolist())
        return text

    def emit(fh, lo: int, hi: int) -> None:
        for i in range(lo, hi, step):
            fh.write(rows(i, min(step, hi - i)))

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if (n_rows * k < _CSV_SPLIT_VALUES or not hasattr(os, "fork")
                or _usable_cpus() < 2):
            emit(fh, 0, n_rows)
            return
        half = n_rows // 2
        with tempfile.TemporaryFile(dir=Path(path).parent) as tail:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    emit(tail, half, n_rows)
                    tail.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                emit(fh, 0, half)
            finally:
                _, status = os.waitpid(pid, 0)
            if status:
                raise OSError(f"{path}: the child formatting rows {half}.."
                              f"{n_rows} exited with status "
                              f"{os.waitstatus_to_exitcode(status)}")
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh)
