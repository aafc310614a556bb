"""Independent checks of the artifacts a scenario writes.

Every reference here is computed from the scenario config alone: closed
forms of the discrete recurrences, closed-form spectra, or properties the
method must have.  None is a stored copy of the program's output.  Each
check returns a list of problems; an empty list means the artifacts are
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def strict_json(path: Path):
    """Parse RFC 8259 JSON: no NaN/Infinity, no duplicate keys."""
    return json.loads(path.read_text(), parse_constant=_reject_constant,
                      object_pairs_hook=_no_duplicates)


def read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    """Read a CSV of exactly `rows` numeric rows under `header`."""
    raw = path.read_bytes()
    first, _, _ = raw.partition(b"\n")
    if first.decode() != ",".join(header):
        raise ValueError(f"{path.name}: header {first.decode()!r}")
    found = raw.count(b"\n") - 1
    if not raw.endswith(b"\n") or found != rows:
        raise ValueError(f"{path.name}: expected {rows} newline-terminated "
                         f"rows, found {found}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, len(header)):
        raise ValueError(f"{path.name}: shape {data.shape}")
    return data


def constants(cfg: dict) -> dict:
    if cfg.get("units", "natural") != "natural":
        raise ValueError("checks cover natural units only")
    c = {"f": 0.5, "hbar": 1.0, "k_boltz": 1.0, "mass": 1.0, "f_ref": 0.5,
         "p_floor": 1e-9}
    c.update(cfg.get("constants", {}))
    return c


def potential(spec: dict, x: np.ndarray):
    """(V, V'') of a potential spec, written out from its definition."""
    kind = spec["kind"]
    if kind == "harmonic":
        k = spec.get("m", 1.0) * spec.get("omega", 1.0) ** 2
        return 0.5 * k * x * x, np.full_like(x, k)
    if kind == "linear":
        return -spec.get("f0", 1.0) * x, np.zeros_like(x)
    if kind == "soft_well":
        v0, a = spec.get("v0", 1.0), spec.get("a", 1.0)
        return v0 * np.tanh(x / a) ** 2, np.full_like(x, 2.0 * v0 / a**2)
    if kind in ("free", "infinite_well"):
        return np.zeros_like(x), np.zeros_like(x)
    raise ValueError(f"no reference for potential {kind!r}")


def _bad(problems: list, name: str, err: float, tol: float) -> None:
    if not err <= tol:
        problems.append(f"{name}: {err:.3e} > {tol:.3e}")


# -- trajectory ------------------------------------------------------------

def leapfrog_harmonic(q0, p0, k, mass, dt, n):
    """Closed form of n velocity-Verlet steps in V = k q^2/2.

    One step is the area-preserving map A with trace 2 - a, a = k dt^2/m,
    a rotation by theta with sin(theta/2) = sqrt(a)/2.  Chebyshev's
    identity gives A^j = (sin(j theta) A - sin((j-1) theta) I)/sin(theta).
    """
    a = k * dt * dt / mass
    theta = 2.0 * math.asin(math.sqrt(a) / 2.0)
    a11, a12 = 1.0 - a / 2.0, dt / mass
    a21, a22 = -k * dt * (1.0 - a / 4.0), 1.0 - a / 2.0
    j = np.arange(n + 1)
    s1 = np.sin(j * theta) / math.sin(theta)
    s0 = np.sin((j - 1) * theta) / math.sin(theta)
    q = s1 * (a11 * q0 + a12 * p0) - s0 * q0
    p = s1 * (a21 * q0 + a22 * p0) - s0 * p0
    return q, p


def check_trajectory(cfg: dict, out: Path) -> list[str]:
    par, c = cfg["params"], constants(cfg)
    n, dt, m = par["n_steps"], par["dt"], c["mass"]
    pot = par["potential"]
    d = read_csv(out / "series.csv", ["t", "q", "p", "delta_q", "f", "T", "V",
                                       "E"], n + 1)
    t, q, p, dq, f, kin, v, e = d.T
    problems = []
    _bad(problems, "t grid", np.max(np.abs(t - np.arange(n + 1) * dt)),
         1e-12 * n * dt)
    defined = np.abs(p) > c["p_floor"]
    if np.any(np.isfinite(f[~defined])) or np.any(np.isfinite(dq[~defined])):
        problems.append("delta_q/f defined inside a turning-point gap")
    _bad(problems, "f column", np.max(np.abs(f[defined] - c["f"]), initial=0.0),
         8 * EPS * c["f"])
    _bad(problems, "delta_q column",
         np.max(np.abs(dq[defined] * np.abs(p[defined]) / c["f"] - 1.0),
                initial=0.0), 8 * EPS)
    v_ref, curv = potential(pot, q)
    scale = max(np.max(np.abs(e)), EPS)
    _bad(problems, "T column", np.max(np.abs(kin - p * p / (2 * m))), 8 * EPS * scale)
    _bad(problems, "V column", np.max(np.abs(v - v_ref)), 8 * EPS * scale)
    _bad(problems, "E = T + V", np.max(np.abs(e - kin - v)), 8 * EPS * scale)
    # symplectic leapfrog: bounded energy error of order (omega*dt)^2
    omega2 = float(np.max(curv)) / m
    _bad(problems, "energy error", np.max(np.abs(e - e[0])) / abs(e[0]),
         max(omega2 * dt * dt, 64 * EPS))
    if pot["kind"] == "harmonic":
        k = pot.get("m", 1.0) * pot.get("omega", 1.0) ** 2
        q_ref, p_ref = leapfrog_harmonic(par["q0"], par["p0"], k, m, dt, n)
        amp = math.sqrt(par["q0"] ** 2 + par["p0"] ** 2 / (k * m))
        _bad(problems, "harmonic q vs closed form",
             np.max(np.abs(q - q_ref)) / amp, 1e-8)
        _bad(problems, "harmonic p vs closed form",
             np.max(np.abs(p - p_ref)) / (amp * math.sqrt(k * m)), 1e-8)
    elif pot["kind"] == "infinite_well":
        width = pot.get("width", 1.0)
        y = np.mod(par["q0"] + np.arange(n + 1) * dt * par["p0"] / m, 2 * width)
        q_ref = np.where(y <= width, y, 2 * width - y)
        sign_ref = np.sign(par["p0"]) * np.where(y <= width, 1.0, -1.0)
        _bad(problems, "well q vs folded free flight",
             np.max(np.abs(q - q_ref)) / width, 1e-9)
        if np.any(np.abs(p) != abs(par["p0"])):
            problems.append("well |p| changed")
        wall = (q_ref < 1e-9 * width) | (q_ref > width * (1 - 1e-9))
        if np.any((np.sign(p) != sign_ref) & ~wall):
            problems.append("well reflection parity differs from folding")
    return problems


# -- piston ----------------------------------------------------------------

def right_wall_hits(l0, v0, u, t_stop):
    """Times, box sizes and speeds of right-wall hits before t_stop.

    Closed-form moving-wall recurrence for a particle starting at the fixed
    wall: t_1 = l0/(v0-u); then t_{k+1} = t_k + 2 L_k/(v_k-u),
    L_{k+1} = L_k (v_k+u)/(v_k-u), v_k = v0 - 2ku, until v_k <= u.
    Returns hits up to t_stop*(1+1e-9); a hit that close to t_stop may or
    may not be logged, so callers accept either count.
    """
    ts, ls = [], []
    t, box, v = l0 / (v0 - u), l0 * v0 / (v0 - u), v0
    limit = t_stop * (1 + 1e-9)
    while v > u and t < limit:
        ts.append(t)
        ls.append(box)
        v -= 2 * u
        if v <= u:
            break
        t, box = t + 2 * box / (v - u), box * (v + u) / (v - u)
    k = np.arange(1, len(ts) + 1)
    return np.array(ts), np.array(ls), v0 - 2 * k * u


def _hit_counts(ts, t_stop):
    n = len(ts)
    return {n, n - 1} if n and ts[-1] > t_stop * (1 - 1e-9) else {n}


def check_scan(cfg: dict, out: Path) -> list[str]:
    par = cfg["params"]
    ratios = par["scan"]["ratios"]
    expansion = par["scan"].get("expansion", 2.0)
    l0, v0 = par.get("l0", 1.0), par.get("v0", 1.0)
    d = read_csv(out / "scan.csv", ["ratio", "delta_ln_pL", "delta_S_over_k"],
                 len(ratios))
    problems = []
    if list(d[:, 0]) != list(ratios):
        problems.append("scan ratios differ from the config")
    if not np.all(np.diff(d[:, 1]) > 0):
        problems.append("invariant violation is not monotone in u/v0")
    for (r, dln, ds), ratio in zip(d, ratios):
        u = ratio * v0
        t_stop = (expansion - 1) * l0 / u
        ts, ls, vs = right_wall_hits(l0, v0, u, t_stop)
        errs = []
        for k in _hit_counts(ts, t_stop):
            v_end = vs[k - 1] if k else v0
            ds_ref = math.log(v_end * expansion / v0)
            dln_ref = abs(math.log(vs[k - 1] * ls[k - 1] / (v0 * l0))) if k else ds_ref
            errs.append(max(abs(ds - ds_ref), abs(dln - dln_ref)))
        _bad(problems, f"scan u/v0={ratio:g} vs recurrence", min(errs), 1e-9)
    return problems


def check_piston(cfg: dict, out: Path) -> list[str]:
    par, c = cfg["params"], constants(cfg)
    if "scan" in par:
        return check_scan(cfg, out)
    l0, v0, mass = par["l0"], par["v0"], par.get("m", 1.0)
    events = out / "events.csv"
    n_rows = events.read_bytes().count(b"\n") - 1
    d = read_csv(events, ["t", "speed", "L", "event", "f", "S"], n_rows)
    t, speed, box, tag, f, s = d.T
    problems = []
    if tag[0] != 0 or tag[-1] != 4 or t[0] != 0 or speed[0] != v0 or box[0] != l0:
        problems.append("event log does not start at INIT and end at STOP")
    _bad(problems, "f = m*speed*L", np.max(np.abs(f / (mass * speed * box) - 1)),
         8 * EPS)
    s_ref = c["k_boltz"] * np.log(f / c["f_ref"])
    _bad(problems, "S = k ln(f/f_ref)", np.max(np.abs(s - s_ref)), 1e-12)
    if par.get("mode", "constant_speed") == "sudden_jump":
        l_end = par["l_end"]
        if np.any(speed != v0):
            problems.append("speed changed in free expansion")
        if np.count_nonzero(tag == 3) != 1 or box[-1] != l_end:
            problems.append("expected one jump to l_end")
        _bad(problems, "sudden jump dS/k vs ln(l_end/l0)",
             abs((s[-1] - s[0]) / c["k_boltz"] - math.log(l_end / l0)), 1e-12)
        return problems

    u = par.get("u", 0.0)
    t_stop = par["t_end"] if "t_end" in par else (par["l_end"] - l0) / u
    _bad(problems, "L = l0 + u t", np.max(np.abs(box - (l0 + u * t)) / box),
         1e-12)
    _bad(problems, "stop time", abs(t[-1] - t_stop) / t_stop, 1e-12)
    left = np.flatnonzero(tag == 1)
    if np.any(speed[left] != speed[left - 1]):
        problems.append("speed changed at the fixed wall")
    right = np.flatnonzero(tag == 2)
    ts, ls, vs = right_wall_hits(l0, v0, u, t_stop)
    k = len(right)
    if k not in _hit_counts(ts, t_stop):
        problems.append(f"{k} right-wall hits, recurrence gives {len(ts)}")
        return problems
    _bad(problems, "speed after k-th hit vs v0 - 2ku",
         np.max(np.abs(speed[right] - vs[:k]), initial=0.0) / v0, 1e-9)
    _bad(problems, "hit times vs recurrence",
         np.max(np.abs(t[right] / ts[:k] - 1), initial=0.0), 1e-9)
    _bad(problems, "hit box sizes vs recurrence",
         np.max(np.abs(box[right] / ls[:k] - 1), initial=0.0), 1e-9)
    if k >= 2:
        cyc = read_csv(out / "cycles.csv", ["dt", "dE", "dS", "dVol", "theta",
                                            "P", "dL_ext", "f_dot",
                                            "s_dot_based"], k - 1)
        _bad(problems, "cycle durations", np.max(np.abs(cyc[:, 0] - np.diff(ts[:k]))
                                                 / np.diff(ts[:k])), 1e-9)
    return problems


# -- wave solvers ----------------------------------------------------------

def _grid(par):
    g = par["grid"]
    return np.linspace(g["x_min"], g["x_max"], g["n"]), \
        (g["x_max"] - g["x_min"]) / (g["n"] - 1)


def harmonic_level(par, c, n):
    """Continuum level 2f*omega'*(n+1/2) and its 3-point O(h^2) bound.

    First-order perturbation by the stencil error -c h^2/12 psi'''' gives
    -(h^2 m omega'^2/32)(2n^2+2n+1); the bound allows twice that.
    """
    pot = par["potential"]
    k = pot.get("m", 1.0) * pot.get("omega", 1.0) ** 2
    omega = math.sqrt(k / c["mass"])
    _, h = _grid(par)
    return (2 * c["f"] * omega * (n + 0.5),
            h * h * c["mass"] * omega**2 * (2 * n * n + 2 * n + 1) / 16)


def check_tise(cfg: dict, out: Path) -> list[str]:
    par, c = cfg["params"], constants(cfg)
    x, h = _grid(par)
    n_states = par["n_states"]
    en = read_csv(out / "energies.csv", ["n", "E"], n_states)
    header = ["x"] + [f"{p}_{i}" for i in range(n_states)
                      for p in ("re_psi", "im_psi", "prob")]
    st = read_csv(out / "states.csv", header, len(x))
    problems = []
    coeff = 2 * c["f"] ** 2 / c["mass"]
    kind = par["potential"]["kind"]
    if kind == "infinite_well":
        k = np.arange(1, n_states + 1)
        ref = 2 * coeff / h**2 * (1 - np.cos(k * np.pi / (len(x) - 1)))
        _bad(problems, "well levels vs discrete Dirichlet closed form",
             np.max(np.abs(en[:, 1] - ref)), 64 * EPS * 4 * coeff / h**2)
    elif kind == "harmonic":
        for i, e in enumerate(en[:, 1]):
            level, bound = harmonic_level(par, c, i)
            _bad(problems, f"harmonic level {i} vs n+1/2", abs(e - level), bound)
    _bad(problems, "x column", np.max(np.abs(st[:, 0] - x)),
         8 * EPS * np.max(np.abs(x)))
    prob = st[:, 3::3]
    _bad(problems, "state norms", np.max(np.abs(np.trapezoid(prob, dx=h, axis=0) - 1)),
         1e-10)
    _bad(problems, "prob = |psi|^2",
         np.max(np.abs(prob - st[:, 1::3] ** 2 - st[:, 2::3] ** 2)),
         8 * EPS * np.max(prob))
    return problems


def dst1(u: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I, sum_j u_j sin(pi j k/(N+1)), by an odd FFT."""
    n = len(u)
    ext = np.concatenate(([0.0], u, [0.0], -u[::-1]))
    return -np.fft.fft(ext).imag[1:n + 1] / 2


def descent_energy(par, c, psi: np.ndarray) -> float:
    """Rayleigh quotient of psi for the sine-basis kinetic operator plus V."""
    x, h = _grid(par)
    u = psi[1:-1]
    b = dst1(u)
    k = np.pi * np.arange(1, len(u) + 1) / (h * (len(x) - 1))
    coeff = 2 * c["f"] ** 2 / c["mass"]
    v, _ = potential(par["potential"], x[1:-1])
    return float(coeff * (k * k) @ (b * b) / (b @ b) + (v * u) @ u / (u @ u))


def check_variational(cfg: dict, out: Path) -> list[str]:
    par, c = cfg["params"], constants(cfg)
    x, h = _grid(par)
    d = read_csv(out / "ground_state.csv", ["x", "psi"], len(x))
    psi = d[:, 1]
    problems = []
    _bad(problems, "ground-state norm", abs(np.trapezoid(psi**2, dx=h) - 1), 1e-10)
    if psi[np.argmax(np.abs(psi))] < 0 or np.min(psi) < -1e-8 * np.max(psi):
        problems.append("ground state has a node or a negative sign")
    energy = descent_energy(par, c, psi)
    pot = par["potential"]
    if pot["kind"] == "infinite_well":
        ref = 2 * c["f"] ** 2 / c["mass"] * (math.pi / pot.get("width", 1.0)) ** 2
        _bad(problems, "well descent energy vs c (pi/width)^2",
             abs(energy / ref - 1), 1e-8)
    elif pot["kind"] == "harmonic":
        level, bound = harmonic_level(par, c, 0)
        _bad(problems, "harmonic descent energy vs 1/2", abs(energy - level), bound)
    return problems


def check_wkb(cfg: dict, out: Path) -> list[str]:
    par, c = cfg["params"], constants(cfg)
    x, _ = _grid(par)
    d = read_csv(out / "profile.csv", ["x", "k", "delta_x", "validity"], len(x))
    problems = []
    v, _ = potential(par["potential"], x)
    allowed = par["energy"] - v > 0
    k_ref = np.sqrt((par["energy"] - v[allowed]) / (2 * c["f"] ** 2 / c["mass"]))
    if np.any(np.isfinite(d[~allowed, 1])):
        problems.append("k(x) defined in the forbidden region")
    _bad(problems, "k(x) vs sqrt((E-V)/c)",
         np.max(np.abs(d[allowed, 1] / k_ref - 1)), 1e-12)
    _bad(problems, "delta_x vs 1/(2k)",
         np.max(np.abs(d[allowed, 2] * 2 * k_ref - 1)), 1e-12)
    if par.get("with_bohm_report"):
        rep = strict_json(out / "bohm_report.json")
        if sorted(rep) != ["bohm_ratio", "level_spacing", "max_dv_dt"]:
            problems.append(f"bohm report keys {sorted(rep)}")
    return problems


# -- acceptance ------------------------------------------------------------

def check_suite(cfg: dict, out: Path) -> list[str]:
    rep = strict_json(out / "acceptance_report.json")
    criteria = rep["criteria"]
    problems = []
    if len(criteria) != 12 or len({cr["name"] for cr in criteria}) != 12:
        problems.append(f"{len(criteria)} criteria reported, expected 12")
    for cr in criteria:
        if not cr["checks"]:
            problems.append(f"criterion {cr['name']} has no checks")
        problems += [f"{cr['name']}/{ch['name']} failed"
                     for ch in cr["checks"] if ch["pass"] is not True]
    return problems


_BY_KIND = {"trajectory": check_trajectory, "piston": check_piston,
            "tise": check_tise, "variational": check_variational,
            "wkb": check_wkb, "suite": check_suite}


def check_report(out: Path) -> list[str]:
    """report.json parses strictly, every check passes, artifacts exist."""
    rep = strict_json(out / "report.json")
    problems = [f"check {ch['name']} failed" for ch in rep["checks"]
                if ch["pass"] is not True]
    problems += [f"listed artifact {a} missing" for a in rep["artifacts"]
                 if not (out / a).is_file()]
    return problems


def check(cfg: dict, out: Path) -> list[str]:
    """All problems with one scenario's outputs in `out`."""
    try:
        problems = [] if cfg["kind"] == "suite" else check_report(out)
        return problems + _BY_KIND[cfg["kind"]](cfg, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> str:
    """Hash of every deterministic artifact in `out`.

    timing.json holds wall-clock times by design and is left out; so are
    the acceptance report's runtime_s values, which are wall times too.
    """
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name == "timing.json":
            continue
        h.update(path.name.encode() + b"\0")
        if path.name == "acceptance_report.json":
            rep = strict_json(path)
            for cr in rep["criteria"]:
                for ch in cr["checks"]:
                    if ch["name"].endswith("runtime_s"):
                        ch["value"] = None
            h.update(json.dumps(rep, sort_keys=True).encode())
            continue
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()
