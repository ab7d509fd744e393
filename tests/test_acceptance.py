"""Acceptance suite: twelve release criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line outside pytest's capture so a
plain run doubles as a checklist, then asserts the stated tolerances.  The
checks favor ground truth that can be computed independently of the code
under test: exact small-case oracles, exhaustive searches, algebraic
identities, agreement between unrelated estimators, and byte-identical
replay of the pipeline artifacts.
"""

import hashlib
import itertools
import subprocess
import sys
import time
import timeit

import numpy as np

from subsel.criteria import RobustContext, get_check, i_criterion, trace_r, wiens_losses
from subsel.estimation import fit_logistic, fit_ols, sigmoid
from subsel.ingest_sim import (
    default_analogue_grid,
    default_analogue_theta,
    grid_from_data,
    simulate_example2,
    simulate_mortgage_analogue,
)
from subsel.model_core import (
    BiasSpec,
    CandidateGrid,
    DesignMeasure,
    ModelSpec,
    information_matrix,
    information_matrix_from_selection,
    model_matrix,
    polynomial_basis,
    uniform_design,
)
from subsel.rng import CounterRng
from subsel.select_iboss import iboss_det_bound, run_iboss
from subsel.select_robust import run_wiens
from subsel.select_sequential import SeqConfig, run_sequential


def _report(capsys, num: int, ok: bool, text: str) -> None:
    # one visible checklist line per criterion, then the hard assertion
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def _poly_spec(degree: int) -> ModelSpec:
    fn, p = polynomial_basis(degree=degree, intercept=True, dim=1)
    return ModelSpec(f_basis=fn, p=p)


def test_criterion_01_extreme_selection_exact_small_case(capsys):
    """Ten integer points, four kept: both ends, in under a millisecond."""
    feats = np.arange(1.0, 11.0)[:, None]
    sel = run_iboss(feats, 4)
    picked = np.sort(feats[sel.indices, 0])
    per_call = min(timeit.repeat(lambda: run_iboss(feats, 4), number=200, repeat=3)) / 200
    ok = bool(np.array_equal(picked, [1.0, 2.0, 9.0, 10.0])) and per_call < 1e-3
    _report(
        capsys, 1, ok,
        f"selected values {picked.tolist()} (expected [1, 2, 9, 10]), "
        f"{per_call * 1e6:.0f} us per call (< 1 ms)",
    )


def test_criterion_02_determinant_bound_holds_on_random_data(capsys):
    """det of the selected information matrix never beats its closed bound."""
    worst = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = 2 + seed % 3
        feats = rng.normal(size=(10_000, p)) * (1.0 + rng.uniform(size=p))
        if seed % 4 == 0:
            feats = np.exp(0.5 * feats)  # skewed columns stress the range term
        n_d = (40, 120, 400)[seed % 3]
        sigma = 2.0 if seed % 5 == 0 else 1.0
        sel = run_iboss(feats, n_d)
        det, bound = iboss_det_bound(feats, sel, sigma=sigma)
        worst = max(worst, det / bound)
    ok = worst <= 1.0 + 1e-9
    _report(
        capsys, 2, ok,
        f"100 seeded datasets (N=10000, p in 2..4): worst det/bound ratio "
        f"{worst:.6f} (must be <= 1 + 1e-9)",
    )


def test_criterion_03_extreme_selection_runtime_scales_linearly(capsys):
    """One million rows in under five seconds; tenfold data, at most 15x time."""
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(1_000_000, 4))
    t_small = min(timeit.repeat(lambda: run_iboss(feats, 1000), number=1, repeat=3))
    big = rng.normal(size=(10_000_000, 4))
    t_big = min(timeit.repeat(lambda: run_iboss(big, 1000), number=1, repeat=3))
    del big
    ok = t_small < 5.0 and t_big <= 15.0 * t_small
    _report(
        capsys, 3, ok,
        f"N=1e6, p=4, n={1000}: {t_small * 1e3:.1f} ms (< 5 s); "
        f"time ratio at N=1e7 is {t_big / t_small:.1f}x (<= 15x)",
    )


def test_criterion_04_robust_losses_reduce_to_classical_at_nu_zero(capsys):
    """With the bias weight off, both robust losses equal classical values."""
    spec = _poly_spec(1)
    pts = np.linspace(-1.0, 1.0, 21)
    grid = CandidateGrid(pts[:, None])
    f = model_matrix(spec, pts)
    ctx = RobustContext(f_matrix=f, q_matrix=np.linalg.qr(f)[0], nu=0.0, points=pts)
    det_ff = float(np.linalg.det(f.T @ f))

    designs = [np.full(21, 1.0 / 21)]
    endpoints = np.zeros(21)
    endpoints[0] = endpoints[-1] = 0.5
    designs.append(endpoints)
    for seed in (1, 2, 3):
        w = 0.05 + CounterRng(seed).uniform(21)
        designs.append(w / w.sum())

    worst_i = worst_d = 0.0
    for w in designs:
        measure = DesignMeasure(pts, w)
        inu, dnu = wiens_losses(ctx, w)
        i_classical = i_criterion(spec, measure, grid).value
        m = information_matrix(spec, measure)
        d_classical = (det_ff / float(np.linalg.det(m.full))) ** (1.0 / spec.p)
        worst_i = max(worst_i, abs(inu.value - i_classical) / abs(i_classical))
        worst_d = max(worst_d, abs(dnu.value - d_classical) / abs(d_classical))
    ok = worst_i <= 1e-10 and worst_d <= 1e-10
    _report(
        capsys, 4, ok,
        f"nu=0 on a 21-point grid: I gap {worst_i:.2e}, D gap {worst_d:.2e} "
        f"(relative, both <= 1e-10)",
    )


def test_criterion_05_uniform_minimizes_pure_bias_loss(capsys):
    """At full bias weight the uniform measure beats 1000 random measures."""
    spec = _poly_spec(1)
    pts = np.linspace(-1.0, 1.0, 5)
    f = model_matrix(spec, pts)
    ctx = RobustContext(f_matrix=f, q_matrix=np.linalg.qr(f)[0], nu=1.0, points=pts)
    d_uniform = wiens_losses(ctx, np.full(5, 0.2))[1].value
    best_random = np.inf
    for seed in range(1000):
        w = 0.05 + CounterRng(seed).uniform(5)
        best_random = min(best_random, wiens_losses(ctx, w / w.sum())[1].value)
    ok = d_uniform <= best_random + 1e-12
    _report(
        capsys, 5, ok,
        f"nu=1 on a 5-point grid: uniform D-loss {d_uniform:.3e} <= best of "
        f"1000 seeded random measures {best_random:.3e} + 1e-12",
    )


def test_criterion_06_equivalence_check_matches_exhaustive_search(capsys):
    """Optimality verdicts agree with brute-force equal-weight search."""
    line = _poly_spec(1)
    quad = _poly_spec(2)
    pts = np.linspace(-1.0, 1.0, 21)
    grid = CandidateGrid(pts[:, None])

    v_good = get_check(line, uniform_design([-1.0, 1.0]), grid, k_eff=2, tol=1e-6)
    v_bad = get_check(line, uniform_design([-0.5, 0.5]), grid, k_eff=2, tol=1e-6)
    v_quad = get_check(quad, uniform_design([-1.0, 0.0, 1.0]), grid, k_eff=3, tol=1e-6)

    def best_support(spec, size):
        best, best_det = None, -np.inf
        for combo in itertools.combinations(pts, size):
            m = information_matrix(spec, uniform_design(list(combo)))
            det = float(np.linalg.det(m.full))
            if det > best_det:
                best, best_det = combo, det
        return np.asarray(best)

    t0 = time.perf_counter()
    best_pair = best_support(line, 2)
    best_triple = best_support(quad, 3)
    oracle_seconds = time.perf_counter() - t0

    ok = (
        v_good.is_optimal
        and abs(v_good.max_variance - 2.0) <= 1e-6
        and (not v_bad.is_optimal)
        and abs(v_bad.max_variance - 5.0) <= 1e-6
        and v_quad.is_optimal
        and bool(np.allclose(best_pair, [-1.0, 1.0]))
        and bool(np.allclose(best_triple, [-1.0, 0.0, 1.0]))
        and oracle_seconds < 10.0
    )
    _report(
        capsys, 6, ok,
        f"verdicts pass/fail/pass with max variance 2.0 / "
        f"{v_bad.max_variance:.6f} / {v_quad.max_variance:.6f}; exhaustive "
        f"search confirms both supports in {oracle_seconds:.2f} s (< 10 s)",
    )


def _partitioned_instance(seed: int):
    """Random basis triple, positive-weight design, and bias coefficients."""
    rng = CounterRng(seed + 1)
    p = 1 + seed % 3
    m = 1 + (seed // 3) % 3
    q = seed % 4
    fn, _ = polynomial_basis(degree=p - 1, intercept=True, dim=1)
    h_pows = np.arange(p, p + m, dtype=float)
    g_pows = np.arange(1, q + 1, dtype=float)
    spec = ModelSpec(
        f_basis=fn,
        p=p,
        h_basis=lambda c, pw=h_pows: np.power(c[0], pw),
        m=m,
        g_basis=(lambda c, pw=g_pows: np.power(c[0], pw)) if q else None,
        q=q,
    )
    n_pts = p + m + q + 2
    x = np.sort(rng.uniform(n_pts) * 2.0 - 1.0)
    z = rng.uniform(n_pts) * 2.0 - 1.0 if q else None
    w = 0.1 + rng.uniform(n_pts)
    design = DesignMeasure(x, w / w.sum(), z)
    bias = BiasSpec(
        psi=rng.normal(m),
        phi=rng.normal(q) if q else np.zeros(0),
        sigma=0.5 + rng.uniform(1)[0],
        n_total=5 + seed % 16,
    )
    return spec, design, bias


def test_criterion_07_mse_trace_matches_dense_expansion(capsys):
    """trace criterion equals the dense MSE matrix; cross-term flag is exact."""
    worst_rel = 0.0
    worst_flag = 0.0
    nonzero_cross = 0
    for seed in range(100):
        spec, design, bias = _partitioned_instance(seed)
        mat = information_matrix(spec, design)
        m11i = np.linalg.inv(mat.m11)
        u = mat.m12 @ bias.psi if spec.m else np.zeros(spec.p)
        v = mat.m13 @ bias.phi if spec.q else np.zeros(spec.p)
        b = m11i @ (u + v)
        direct = float(np.trace(m11i + bias.ratio**2 * np.outer(b, b)))

        cv2 = trace_r(mat, bias)
        cv1 = trace_r(mat, bias, cross_term_coefficient=1.0)
        worst_rel = max(worst_rel, abs(cv2.value - direct) / max(abs(direct), 1e-300))
        expected_gap = bias.ratio**2 * cv2.meta["tr_S4"]
        worst_flag = max(
            worst_flag,
            abs((cv2.value - cv1.value) - expected_gap) / max(1.0, abs(expected_gap)),
        )
        if cv2.meta["tr_S4"] != 0.0:
            nonzero_cross += 1
    ok = worst_rel <= 1e-10 and worst_flag <= 1e-9 and nonzero_cross >= 40
    _report(
        capsys, 7, ok,
        f"100 randomized bases (p,m,q <= 3): worst trace gap {worst_rel:.2e} "
        f"(<= 1e-10 relative); cross-term flag exact to {worst_flag:.2e} on "
        f"{nonzero_cross} instances with a nonzero cross term",
    )


def test_criterion_08_warm_start_strategies_agree_at_scale(capsys):
    """Three warm starts on 100k simulated loans land on the same estimate."""
    t0 = time.perf_counter()
    theta_gen = default_analogue_theta()
    ds = simulate_mortgage_analogue(100_000, seed=0)
    grid = default_analogue_grid()
    fn, p = polynomial_basis(degree=1, intercept=True, dim=4)
    spec = ModelSpec(f_basis=fn, p=p)

    base = dict(n_init=5000, n_target=6200, seed=0)
    cfgs = [
        SeqConfig(**base),
        SeqConfig(**base, init_strategy="stratified", init_column="ccDebt", init_quantiles=10),
        SeqConfig(**base, init_strategy="dope", init_label=1.0),
    ]
    fits = [run_sequential(ds, grid, spec, cfg)[1].final_fit for cfg in cfgs]

    z_gen = max(float(np.max(np.abs(f.theta - theta_gen) / f.std_errors)) for f in fits)
    z_pair = 0.0
    for a, b in itertools.combinations(fits, 2):
        se = np.sqrt(a.std_errors**2 + b.std_errors**2)
        z_pair = max(z_pair, float(np.max(np.abs(a.theta - b.theta) / se)))
    elapsed = time.perf_counter() - t0
    ok = z_gen <= 3.0 and z_pair <= 3.0 and elapsed < 300.0
    _report(
        capsys, 8, ok,
        f"random/stratified/enriched warm starts: max |z| vs generator "
        f"{z_gen:.2f}, pairwise {z_pair:.2f} (both <= 3); {elapsed:.0f} s (< 300 s)",
    )


def test_criterion_09_extreme_selection_beats_sequential_determinant(capsys):
    """On 20 seeded small datasets the quota rule wins on determinant."""
    spec = _poly_spec(1)
    d_wins = boundary_wins = 0
    for seed in range(20):
        ds = simulate_example2(105, seed=seed)
        grid = grid_from_data(ds, n_levels=200)
        cfg = SeqConfig(n_init=6, n_target=12, utility="D", seed=seed, family="linear")
        seq_sel, _ = run_sequential(ds, grid, spec, cfg)
        ib_sel = run_iboss(ds.features, 12)

        def det_of(indices):
            m = information_matrix_from_selection(spec, ds.features, indices)
            return float(np.linalg.det(m.full))

        x = ds.features[:, 0]
        std = np.abs((x - x.mean()) / x.std())
        if det_of(ib_sel.indices) >= det_of(seq_sel.indices):
            d_wins += 1
        if std[ib_sel.indices].mean() >= std[seq_sel.indices].mean():
            boundary_wins += 1
    ok = d_wins == 20 and boundary_wins >= 18
    _report(
        capsys, 9, ok,
        f"20 seeds, 12-point selections: determinant wins {d_wins}/20 "
        f"(need 20), mean |standardized x| wins {boundary_wins}/20 (need >= 18)",
    )


def test_criterion_10_robust_iteration_preserves_simplex_and_improves(capsys):
    """Replayed weight paths stay on the simplex, hash as the trace says and end at the returned
    weights; the loss never worsens."""
    worst_sum = 0.0
    worst_gain = -np.inf
    hashes_ok = True
    nonneg_ok = True
    for seed in range(50):
        n_grid = 9 + seed % 7
        pts = np.linspace(-1.0, 1.0, n_grid)
        spec = _poly_spec(1 + seed % 2)
        f = model_matrix(spec, pts)
        ctx = RobustContext(f_matrix=f, q_matrix=np.linalg.qr(f)[0], nu=0.5, points=pts)
        n_init = spec.p + 1 + seed % 3
        measure, traj = run_wiens(ctx, n_init=n_init, n_target=n_init + 40, seed=seed)
        hashes = [step["weights_sha256"] for step in traj.to_json_dict()["steps"]]

        # replay the exact weight path from the recorded choices
        xi = np.zeros(n_grid)
        xi[np.sort(CounterRng(seed).sample_indices(n_grid, n_init))] = 1.0 / n_init
        n = n_init
        for step, digest in zip(traj.steps, hashes, strict=True):
            unit = np.zeros(n_grid)
            unit[step.chosen_index] = 1.0
            xi = (n * xi + unit) / (n + 1.0)
            n += 1
            worst_sum = max(worst_sum, abs(float(xi.sum()) - 1.0))
            nonneg_ok = nonneg_ok and bool(np.min(xi) >= 0.0)
            hashes_ok = hashes_ok and hashlib.sha256(xi.tobytes()).hexdigest() == digest
        hashes_ok = hashes_ok and np.array_equal(xi, measure.weights)
        worst_gain = max(worst_gain, traj.final_dnu - traj.steps[0].dnu)

    # near-pure bias weight piles mass onto the two endpoints
    pts = np.linspace(-1.0, 1.0, 21)
    spec = _poly_spec(1)
    f = model_matrix(spec, pts)
    ctx = RobustContext(f_matrix=f, q_matrix=np.linalg.qr(f)[0], nu=1e-6, points=pts)
    measure, _ = run_wiens(ctx, n_init=3, n_target=2003, seed=0)
    endpoint_mass = float(measure.weights[0] + measure.weights[-1])

    ok = (
        worst_sum <= 1e-12
        and nonneg_ok
        and hashes_ok
        and worst_gain <= 1e-9
        and endpoint_mass >= 0.9
    )
    _report(
        capsys, 10, ok,
        f"50 runs at nu=0.5: worst |sum-1| {worst_sum:.1e} (<= 1e-12), weights "
        f"nonnegative {nonneg_ok}, hashes and final weights match {hashes_ok}, worst loss gain "
        f"{worst_gain:.1e} (<= 1e-9); nu=1e-6 endpoint mass {endpoint_mass:.4f} "
        f"(>= 0.9 after 2000 iterations)",
    )


def test_criterion_11_estimators_recover_and_satisfy_normal_equations(capsys):
    """Logistic fit recovers its generator; OLS residuals are orthogonal."""
    rng = CounterRng(9)
    n = 5000
    x = np.column_stack([np.ones(n), rng.normal(n), rng.normal(n)])
    theta = np.array([-1.0, 2.0, -0.5])
    y = (rng.uniform(n) < sigmoid(x @ theta)).astype(float)
    fit = fit_logistic(x, y)
    z_max = float(np.max(np.abs(fit.theta - theta) / fit.std_errors))

    worst = 0.0
    for seed in range(100):
        r2 = np.random.default_rng(seed)
        rows = 25 + seed % 30
        cols = 2 + seed % 4
        xm = np.column_stack([np.ones(rows), r2.normal(size=(rows, cols - 1))])
        ym = r2.normal(size=rows) * (1.0 + seed % 3)
        ols = fit_ols(xm, ym)
        resid = ym - xm @ ols.theta
        rel = float(np.max(np.abs(xm.T @ resid))) / max(1.0, float(np.max(np.abs(xm.T @ ym))))
        worst = max(worst, rel)
    ok = fit.converged and z_max < 3.0 and worst <= 1e-8
    _report(
        capsys, 11, ok,
        f"n=5000 logistic recovery max |z| {z_max:.2f} (< 3); worst relative "
        f"normal-equation residual over 100 OLS fits {worst:.1e} (<= 1e-8)",
    )


def test_criterion_12_pipelines_replay_byte_identical(capsys, tmp_path):
    """Each pipeline exits 0 and rewrites every artifact byte-for-byte."""
    runs = {
        "1": ["--n-data", "20000", "--n-init", "1200", "--n-target", "1600", "--n-test", "4000"],
        "2": [],
        "3": ["--robust-iters", "800"],
    }
    identical = True
    file_counts = {}
    for example, extra in runs.items():
        dirs = []
        for rep in ("a", "b"):
            out = tmp_path / f"ex{example}{rep}"
            cmd = [
                sys.executable, "-m", "subsel.cli", "repro", example,
                "--out-dir", str(out), "--seed", "0", *extra,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir() if p.is_file())
        identical = identical and names == sorted(
            p.name for p in dirs[1].iterdir() if p.is_file()
        )
        for name in names:
            identical = identical and (
                (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            )
        file_counts[example] = len(names)
    ok = identical and all(count > 0 for count in file_counts.values())
    _report(
        capsys, 12, ok,
        f"pipelines 1, 2, 3 rerun byte-identical with "
        f"{file_counts['1']}, {file_counts['2']}, {file_counts['3']} artifacts",
    )
