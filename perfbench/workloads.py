"""The four workloads: set-up from the seed, one op, and the check of its output.

Every workload is a closed loop with one client.  Ops call patrain through
module attributes (``estimators.max_prediction_mse``, ...) so that the
tracer's wrappers, when installed, see every call into a layer.
"""

import csv
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import patrain
import patrain.cli  # the tracer wraps cli attributes too, so load it like the others
from patrain import design, estimators, experiments, pa_model, prior

import checks
import harness
import spans

HERE = Path(__file__).resolve().parent
TRACED_CHILD = HERE / "traced_child.py"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Env:
    python: str  # interpreter for child processes
    child_env: dict  # environment with PYTHONPATH pointing at the checkout's src/
    workdir: Path  # scratch directory for CSV files, inside the checkout


def op_seed(seed, i):
    """Seed of op ``i``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    body = np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    return {name: body[:, k] for k, name in enumerate(rows[0])}


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(value, ".17g") for value in row])


class Workload:
    name = ""
    why = ""
    op_text = ""  # what one op does, at which input size
    in_process = True
    cycle = 1  # distinct ops before the sequence repeats

    def __init__(self, seed, env):
        self.seed = seed
        self.env = env

    def setup(self):
        """Generate inputs and warm up; may run several times, keeping the last."""

    def op(self, i, tracer):
        raise NotImplementedError

    def check(self, i, output):
        raise NotImplementedError

    def calibration_kernel(self):
        """Fixed work outside patrain that a timed run measures op times against."""
        harness.calibration_kernel()

    def extra(self, loop):
        """Per-layer values computed from op outputs rather than spans."""
        return {}


class CliCold(Workload):
    name = "cli_cold"
    why = (
        "what a CLI user pays per call: interpreter start, import and CSV I/O dominate; "
        "compute layers do little"
    )
    op_text = (
        "one fresh `python -m patrain` process, cycling fig1, fig2, fig3, fig4, design, "
        "estimate (LS) and estimate with prior CSVs (LMMSE)"
    )
    in_process = False
    ORDER, PILOTS = 5, 10  # estimate inputs
    PRIOR_REALIZATIONS = 200

    def setup(self):
        rng = np.random.default_rng(self.seed)
        work = self.env.workdir
        order, n = self.ORDER, self.PILOTS
        self.sigma2 = float(10.0 ** rng.uniform(-3.0, -1.0))
        amps = np.sort(rng.uniform(0.2, 1.0, n))
        phases = rng.uniform(-np.pi, np.pi, n)
        dist = prior.RappDistribution()
        model = prior.fit_polynomial_to_curve(prior.draw_rapp_params(dist, rng), order, prior.default_fit_grid())
        pilots = pa_model.PilotSequence(amps * np.exp(1j * phases), float(amps.max()))
        noise = estimators.NoiseModel(self.sigma2, seed=int(rng.integers(2**31)))
        observations = estimators.generate_noisy_observations(model, pilots, noise)
        config = prior.PriorConfig(self.PRIOR_REALIZATIONS, order, mode=prior.COHERENT, seed=int(rng.integers(2**31)))
        prior_stats = prior.build_prior(config, dist)

        _write_rows(work / "pilots.csv", ("index", "amp", "phase"), zip(range(n), amps, phases))
        _write_rows(
            work / "obs.csv", ("index", "re", "im"), zip(range(n), observations.real, observations.imag)
        )
        prior.save_prior(prior_stats, work / "prior_mean.csv", work / "prior_cov.csv")
        phi = pa_model.build_design_matrix(pilots, order)
        self.references = {
            "estimate_ls": estimators.ls_estimate(phi, observations, self.sigma2),
            "estimate_lmmse": estimators.lmmse_estimate(phi, observations, self.sigma2, prior_stats),
        }
        self.design_order = int(rng.integers(4, 8))
        self.design_support = design.optimal_support_points(self.design_order)
        sigma2, data_seed = repr(self.sigma2), str(int(rng.integers(2**31)))
        estimate = ["estimate", "pilots.csv", "obs.csv", "--order", str(order), "--sigma2", sigma2]
        self.commands = [
            ("fig1", ["fig1", "--order", str(order), "--pilots", str(n), "--sigma2", sigma2]),
            ("fig2", ["fig2"]),
            ("fig3", ["fig3", "--seed", data_seed]),
            ("fig4", ["fig4", "--seed", data_seed]),
            ("design", ["design", "--order", str(self.design_order), "--pilots", str(2 * self.design_order)]),
            ("estimate_ls", estimate),
            ("estimate_lmmse", estimate + ["--prior-mean", "prior_mean.csv", "--prior-cov", "prior_cov.csv"]),
        ]
        self.cycle = len(self.commands)
        code, stderr = self._run(["design"], None, None)  # warm-up
        if code != 0:
            raise RuntimeError(f"warm-up `patrain design` exited {code}: {stderr}")

    def calibration_kernel(self):
        """A bare interpreter start: the kind of work most of an op is."""
        subprocess.run(
            [self.env.python, "-c", "pass"], cwd=self.env.workdir, env=self.env.child_env,
            check=True, timeout=CHILD_TIMEOUT_S,
        )

    def _run(self, argv, tracer, op):
        work = self.env.workdir
        if tracer is None:
            command = [self.env.python, "-m", "patrain", *argv]
        else:
            spans_path = work / "spans.json"
            spans_path.unlink(missing_ok=True)  # never adopt a previous child's spans
            command = [self.env.python, str(TRACED_CHILD), str(spans_path), *argv]
        proc = subprocess.run(
            command, cwd=work, env=self.env.child_env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if tracer is not None:
            with open(spans_path) as handle:
                tracer.adopt(json.load(handle), op)
        return proc.returncode, proc.stderr

    def op(self, i, tracer):
        kind, argv = self.commands[i % self.cycle]
        out = self.env.workdir / f"{kind}.csv"
        out.unlink(missing_ok=True)
        code, stderr = self._run(argv + ["--out", out.name], tracer, i)
        return kind, code, stderr, out

    def check(self, i, output):
        kind, code, stderr, out = output
        if code != 0:
            return [f"{kind}: exit code {code}: {stderr.strip()[-500:]}"]
        table = _read_table(out)
        order, n = self.ORDER, self.PILOTS
        if kind == "fig1":
            optimal = table["mse_optimal"]
            return checks.close("fig1 max optimal MSE = sigma2 L/N", optimal.max(), self.sigma2 * order / n, rel=1e-6) + (
                checks.not_above("fig1 optimal max <= uniform max", optimal.max(), table["mse_uniform"].max())
            )
        if kind == "fig2":
            return checks.close("fig2 gain ratios", table["gain_ratio"], checks.FIG2_GAIN_RATIOS, rel=1e-3)
        if kind == "fig3":
            amplitude = table["amplitude"]
            misses = []
            for point, expected in checks.RAPP_NOMINAL.items():
                at = np.flatnonzero(np.isclose(amplitude, point))
                misses += checks.close(f"fig3 nominal Rapp at {point}", table["nominal_rapp"][at], [expected], 0.0, atol=1e-6)
            misses += checks.not_above("fig3 lower band <= mean", table["lower_band"], table["mean"])
            return misses + checks.not_above("fig3 mean <= upper band", table["mean"], table["upper_band"])
        if kind == "fig4":
            return checks.fig4_table(table, check_bands=False)
        if kind == "design":
            expected = np.repeat(self.design_support, 2)
            return checks.close("design amplitudes = optimal_support_points", table["amp"], expected, 0.0, atol=1e-8)
        result = self.references[kind]
        estimate = table["beta_re"] + 1j * table["beta_im"]
        covariance = np.column_stack(
            [table[f"cov_re_{j}"] + 1j * table[f"cov_im_{j}"] for j in range(order)]
        )
        return checks.scaled_close(f"{kind} estimate", estimate, result.estimate, rel=1e-8) + checks.scaled_close(
            f"{kind} covariance", covariance, result.error_covariance, rel=1e-8
        )


class PriorMc(Workload):
    name = "prior_mc"
    why = "prior draw, fit and moments do most of the work; every realization is fitted twice"
    REALIZATIONS = 2000
    op_text = f"run_fig4(order=7, n_pilots=7, realizations={REALIZATIONS}, seed=s_i), s_i from the workload seed"

    def setup(self):
        experiments.run_fig4(7, 7, realizations=100, seed=self.seed)  # warm-up

    def op(self, i, tracer):
        with spans.installed(tracer, patrain, i):
            return experiments.run_fig4(
                order=7, n_pilots=7, realizations=self.REALIZATIONS, seed=op_seed(self.seed, i)
            )

    def check(self, i, table):
        return checks.fig4_table({name: table.column(name) for name in table.header}, check_bands=True)


class DesignOracle(Workload):
    name = "design_oracle"
    why = "design layer only; mixes orders that converge in a few sweeps with orders that hit the sweep cap"
    ORDERS = (4, 5, 6, 7)
    # A 250-step grid rather than the default 1000: L = 6 still runs the full
    # 500 sweeps while L = 4, 5 and 7 converge in a few, and an op takes about
    # 1 s instead of 6-7 s.  The same op time varies by about 12 % from op to
    # op, and no calibration kernel follows it, so a run needs many ops: with
    # the default grid a 25-second run held 3, and the median spread by
    # 0.06-0.125 of itself between runs.
    GRID_RESOLUTION = 250
    op_text = (
        f"exchange_search_verify(L, L, grid_resolution={GRID_RESOLUTION}) for L in {{4, 5, 6, 7}}, "
        "each compared with the d_criterion of allocate_pilots(L, L); the order of L is drawn from the seed"
    )
    # The search keeps its default seed: that seed and the grid decide which
    # orders hit the 500-sweep cap, so drawing it per op would make the op
    # time jump between regimes rather than exercise different inputs.

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.orders = tuple(int(order) for order in rng.permutation(self.ORDERS))
        for order in self.ORDERS:
            design.allocate_pilots(order, order)
        design.exchange_search_verify(4, 4, grid_resolution=self.GRID_RESOLUTION)  # warm-up; converges fast

    def op(self, i, tracer):
        with spans.installed(tracer, patrain, i):
            results = []
            for order in self.orders:
                _, found = design.exchange_search_verify(order, order, grid_resolution=self.GRID_RESOLUTION)
                pilots = design.allocate_pilots(order, order)
                analytic = design.d_criterion(pa_model.build_design_matrix(pilots, order), 1.0)
                results.append((order, found.log_det, analytic.log_det))
            return results

    def check(self, i, results):
        return [
            f"exchange L={order}: found log det {found!r} < analytic {analytic!r} - 1e-6"
            for order, found, analytic in results
            if not found >= analytic - 1e-6
        ]

    def extra(self, loop):
        gaps = [found - analytic for output in loop.outputs if output for _, found, analytic in output]
        return {"design.exchange.logdet_gap_max": max(gaps) if gaps else 0.0}


class EstimatorSweep(Workload):
    name = "estimator_sweep"
    why = "estimators do nearly all the work; both LMMSE forms (information and observation) are used"
    PAIRS = ((4, 4), (4, 8), (5, 5), (5, 10), (6, 6), (6, 12), (7, 7), (7, 14))
    FULL_RANK_REALIZATIONS = 200
    OBSERVATION_SIGMA2 = 0.01
    op_text = (
        "for one (L, N) of a fixed cycle over L = 4..7, N in {L, 2L}: max_prediction_mse over "
        "the fig4 SNR sweep for uniform and optimal pilots with no prior, a full-rank prior "
        "and a rank-deficient prior (L - 1 realizations), then ls_estimate and both "
        "lmmse_estimate forms on seeded noisy observations"
    )
    cycle = len(PAIRS)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        dist = prior.RappDistribution()
        self.priors = {}
        for order in sorted({order for order, _ in self.PAIRS}):
            built = {}
            for kind, realizations in (("full", self.FULL_RANK_REALIZATIONS), ("deficient", order - 1)):
                config = prior.PriorConfig(realizations, order, mode=prior.COHERENT, seed=int(rng.integers(2**31)))
                built[kind] = prior.build_prior(config, dist)
            if np.linalg.matrix_rank(built["full"].covariance) != order:
                raise RuntimeError(f"order {order}: the full-rank prior is rank deficient")
            self.priors[order] = {"ls": None, **built}
        self.sigma2s = np.array(
            [experiments.snr_db_to_sigma2(db, experiments.PER_SYMBOL, 1) for db in experiments.DEFAULT_SNR_SWEEP_DB]
        )
        self.observations = {}
        for order, n in self.PAIRS:
            model = pa_model.PaPolynomial(self.priors[order]["full"].mean)
            noise = estimators.NoiseModel(self.OBSERVATION_SIGMA2, seed=int(rng.integers(2**31)))
            pilots = design.allocate_pilots(order, n)
            self.observations[order, n] = estimators.generate_noisy_observations(model, pilots, noise)
        self.op(0, None)  # warm-up

    def op(self, i, tracer):
        order, n = self.PAIRS[i % self.cycle]
        priors = self.priors[order]
        with spans.installed(tracer, patrain, i):
            designs = {
                "uniform": pa_model.build_design_matrix(design.uniform_pilots(n), order),
                "optimal": pa_model.build_design_matrix(design.allocate_pilots(order, n), order),
            }
            maxima = {
                (allocation, kind): np.array(
                    [estimators.max_prediction_mse(phi, sigma2, prior_stats) for sigma2 in self.sigma2s]
                )
                for allocation, phi in designs.items()
                for kind, prior_stats in priors.items()
            }
            phi, r, sigma2 = designs["optimal"], self.observations[order, n], self.OBSERVATION_SIGMA2
            fits = {"ls": estimators.ls_estimate(phi, r, sigma2)}
            for kind in ("full", "deficient"):
                fits[kind] = estimators.lmmse_estimate(phi, r, sigma2, priors[kind])
        return order, n, phi, maxima, fits

    def check(self, i, output):
        order, n, phi, maxima, fits = output
        misses = checks.close(
            f"L={order} N={n}: optimal LS max MSE = sigma2 L/N",
            maxima["optimal", "ls"], self.sigma2s * order / n, rel=1e-6,
        )
        for allocation in ("uniform", "optimal"):
            for kind in ("full", "deficient"):
                misses += checks.not_above(
                    f"L={order} N={n}: {allocation} LMMSE ({kind} prior) max MSE <= LS",
                    maxima[allocation, kind], maxima[allocation, "ls"],
                )
        r = self.observations[order, n]
        gram = phi.conj().T @ phi
        misses += checks.scaled_close(
            f"L={order} N={n}: LS normal equations", gram @ fits["ls"].estimate, phi.conj().T @ r, rel=1e-8
        )
        ls_trace = np.trace(fits["ls"].error_covariance).real
        for kind in ("full", "deficient"):
            misses += checks.not_above(
                f"L={order} N={n}: LMMSE ({kind} prior) error trace <= LS",
                np.trace(fits[kind].error_covariance).real, ls_trace,
            )
        return misses


WORKLOADS = {workload.name: workload for workload in (CliCold, PriorMc, DesignOracle, EstimatorSweep)}
