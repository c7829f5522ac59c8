"""Correctness checks the benchmark runs after timing.

Each check recomputes what the program produced with code of its own: the
GRES edge statistics and E[S] from the edge lists, the filter bank as plain
per-filter, per-sample loops, the gradient as central finite differences,
and the dual iterates as projected ascent.  Every check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

Z_LIMIT = 5.0          # binomial standard errors allowed for edge frequencies
FORWARD_RTOL = 1e-9    # summation-order differences only
GRAD_RTOL = 1e-6       # central differences at FD_EPS are good to ~1e-9
FD_EPS = 1e-6
DUAL_RTOL = 1e-12


def _edge_cols(edges):
    if not edges:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    i, j, w = zip(*edges)
    return np.array(i), np.array(j), np.array(w, dtype=float)


def check_sampler(shifts, nominal, drop_edges, add_edges, p, q) -> list:
    """Realizations ``shifts`` (M, n, n) of an adjacency GRES(p, q) model."""
    failures = []
    m, n, _ = shifts.shape
    if not np.array_equal(shifts, np.swapaxes(shifts, 1, 2)):
        failures.append("sampler: a realization is not symmetric")
    random = np.zeros((n, n), dtype=bool)
    expected = np.array(nominal, dtype=float)
    tol = np.zeros((n, n))
    for edges, prob, kind in ((drop_edges, 1.0 - p, "drop"), (add_edges, q, "add")):
        ii, jj, ww = _edge_cols(edges)
        if ii.size == 0:
            continue
        random[ii, jj] = random[jj, ii] = True
        vals = shifts[:, ii, jj]
        present = vals == ww
        if not np.all(present | (vals == 0.0)):
            failures.append(f"sampler: a {kind} edge holds neither 0 nor its weight")
        se = math.sqrt(prob * (1.0 - prob) / m)
        freq = present.mean(axis=0)
        bad = np.abs(freq - prob) > Z_LIMIT * se
        if np.any(bad):
            k = int(np.argmax(np.abs(freq - prob)))
            failures.append(f"sampler: {int(bad.sum())} {kind} edges off their presence "
                            f"probability {prob:.4g} (edge {k}: {freq[k]:.4g}, se {se:.3g})")
        expected[ii, jj] = expected[jj, ii] = ww * prob
        tol[ii, jj] = tol[jj, ii] = Z_LIMIT * np.abs(ww) * se
    if not np.array_equal(shifts[:, ~random], np.broadcast_to(nominal[~random], (m, n * n - random.sum()))):
        failures.append("sampler: a realization differs from the nominal shift off the random edges")
    gap = np.abs(shifts.mean(axis=0) - expected) - tol
    if np.any(gap > 1e-12):
        failures.append(f"sampler: mean shift misses E[S] by {gap.max():.3g} beyond {Z_LIMIT} se")
    return failures


def activation(name: str, slope: float):
    if name == "relu":
        return lambda u: np.maximum(u, 0.0)
    if name == "leaky_relu":
        return lambda u: np.where(u > 0, u, slope * u)
    if name == "abs":
        return np.abs
    if name == "identity":
        return lambda u: u
    raise ValueError(f"no reference for activation {name!r}")


def reference_forward(taps, readout_w, readout_b, act, shift, x):
    """y_f = act(sum_g sum_k h[f,g,k] S_k ... S_1 x_g), one sample at a time.

    ``shift(l, f, g, k)`` is the n x n shift of hop k (1-based) of filter
    (f, g) in layer l; ``x`` is (F0, n, B).  Returns (output, logits).
    """
    cur = np.asarray(x, dtype=float)
    for l, h in enumerate(taps):
        f_out, f_in, k1 = h.shape
        nxt = np.zeros((f_out,) + cur.shape[1:])
        for f in range(f_out):
            for g in range(f_in):
                mats = [shift(l, f, g, k) for k in range(1, k1)]
                for b in range(cur.shape[-1]):
                    z = cur[g, :, b]
                    acc = h[f, g, 0] * z
                    for k, s in enumerate(mats, start=1):
                        z = s @ z
                        acc = acc + h[f, g, k] * z
                    nxt[f, :, b] += acc
        cur = act(nxt)
    logits = None
    if readout_w is not None:
        logits = readout_w @ cur.reshape(-1, cur.shape[-1]) + readout_b[:, None]
    return cur, logits


def check_forward(reference, output, logits) -> list:
    """Program outputs (F_L, n, B) and logits (C, B) against the reference."""
    failures = []
    pairs = [("output", reference[0], output)]
    if reference[1] is not None or logits is not None:
        pairs.append(("logits", reference[1], logits))
    for name, ref, got in pairs:
        if got is None or ref is None or np.shape(got) != np.shape(ref):
            failures.append(f"forward: {name} missing or misshapen")
            continue
        err = float(np.max(np.abs(got - ref)))
        if not err <= FORWARD_RTOL * max(1.0, float(np.max(np.abs(ref)))):
            failures.append(f"forward: {name} differs from the reference loop by {err:.3g}")
    return failures


def check_gradient(objective, theta, grad, rng, directions: int = 3, draws: int = 30) -> list:
    """Analytic ``grad`` against central differences along random unit directions.

    ``objective(theta)`` returns the value and the side of every activation
    kink (the signs of the pre-activations).  Central differences do not
    hold across a kink, so a direction whose two points differ in any sign
    is drawn again.
    """
    failures = []
    floor = 1e-9 * (1.0 + float(np.linalg.norm(grad)))
    checked = 0
    for _ in range(draws):
        v = rng.normal(size=theta.size)
        v /= np.linalg.norm(v)
        (up, up_signs), (down, down_signs) = objective(theta + FD_EPS * v), \
            objective(theta - FD_EPS * v)
        if not np.array_equal(up_signs, down_signs):
            continue
        fd = (up - down) / (2.0 * FD_EPS)
        an = float(grad @ v)
        if not abs(fd - an) <= GRAD_RTOL * max(abs(fd), abs(an)) + floor:
            failures.append(f"gradient: direction {checked}: backward {an:.12g}, "
                            f"central difference {fd:.12g}")
        checked += 1
        if checked == directions:
            return failures
    return failures + [f"gradient: {draws - checked} of {draws} directions crossed a kink"]


def check_duals(rows, c_f, c_s, eta_dual) -> list:
    """gamma columns against projected ascent replayed from the m1, m2 columns."""
    g1 = g2 = 0.0
    for r in rows:
        g1 = max(0.0, g1 + eta_dual * (c_f - r["first_moment"]))
        g2 = max(0.0, g2 - eta_dual * (c_s - r["second_moment"]))
        for name, want in (("gamma1", g1), ("gamma2", g2)):
            if not abs(r[name] - want) <= DUAL_RTOL * (1.0 + abs(want)):
                return [f"duals: iteration {r['iter']}: {name}={r[name]!r}, "
                        f"projected ascent gives {want!r}"]
    return []


def check_moments(rows) -> list:
    """Finite rows, gamma >= 0, m1^2 <= m2 and 0 <= variance <= m2."""
    slack = 1e-12
    for r in rows:
        m1, m2, var = r["first_moment"], r["second_moment"], r["variance"]
        where = f"moments: iteration {r['iter']}"
        if not all(math.isfinite(v) for v in r.values()):
            return [f"{where}: non-finite entry"]
        if r["gamma1"] < 0 or r["gamma2"] < 0:
            return [f"{where}: negative dual variable"]
        if m1 * m1 > m2 * (1.0 + slack):
            return [f"{where}: m1^2={m1 * m1!r} exceeds m2={m2!r}"]
        if not 0.0 <= var <= m2 * (1.0 + slack):
            return [f"{where}: variance {var!r} outside [0, m2={m2!r}]"]
    return []


def check_recsys(task, ratings: dict, ad_values) -> list:
    """Held-out ratings read back from the input file, and AD@10 range."""
    failures = []
    ds = task.dataset
    for k in ds.splits["test"]:
        user, node = int(task.sample_users[k]), int(task.sample_items[k])
        rating = ratings.get((user, int(task.covered_items[node])))
        if rating is None or abs(ds.labels[k, node] + task.rating_mean - rating) > 1e-9:
            failures.append(f"recsys: sample {k}: target + mean != file rating {rating}")
            break
        if ds.inputs[k, 0, node] != 0.0:
            failures.append(f"recsys: sample {k}: held-out entry not zeroed in the input")
            break
    covered = len(task.covered_items)
    bad = [a for a in ad_values if not 10 <= a <= covered]
    if bad or not ad_values:
        failures.append(f"recsys: AD@10 values {bad or ad_values} outside [10, {covered}]")
    return failures


def cross_entropy(logits, labels):
    """Mean cross-entropy over realizations and batch, and its logit gradient.

    ``logits`` is (N, C, B) and ``labels`` (B,).
    """
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    soft = e / e.sum(axis=1, keepdims=True)
    count = logits.shape[0] * logits.shape[2]
    cols = np.arange(logits.shape[2])
    picked = shifted[:, labels, cols]
    value = float(np.sum(np.log(e.sum(axis=1)) - picked) / count)
    grad = soft.copy()
    grad[:, labels, cols] -= 1.0
    return value, grad / count


def masked_mse(pred, target, mask):
    """Mean squared error over observed entries, averaged over realizations.

    ``pred`` is (N, n, B); ``target`` and ``mask`` are (n, B).
    """
    total = float(mask.sum()) * pred.shape[0]
    diff = (pred - target) * mask
    return float(np.sum(diff * diff) / total), 2.0 * diff / total
