"""Spans recorded around calls into patrain's layers, from outside the package.

The tracer wraps public functions at the module attributes through which one
layer calls another (``patrain.experiments.build_prior``,
``patrain.prior.fit_polynomial_to_curve``, ...).  A wrapped call records one
span: name, start, end, the enclosing span and the op id.  Spans stay in memory
until the run ends.  Nothing inside ``src/`` is changed: the wrappers are
installed for a traced op and the original attributes restored after it.
"""

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

# Points sampled per max_prediction_mse call by its dense grid; the golden
# section steps that follow are not visible from outside and are not counted.
MAX_MSE_GRID_POINTS = 2001


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span in the same list
    op: int | None
    info: object = None

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.info]


class Tracer:
    """Collects spans; one tracer per run (or per traced child process)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """``fn`` recording a span per call.

        ``name`` is a string or a callable of the call arguments; ``info``
        optionally maps the call arguments to a value stored on the span.
        Both are evaluated before the span starts.
        """

        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        # Inlined rather than using span(): this runs thousands of times per op.
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            note = info(*args, **kwargs) if info is not None else None
            span = Span(label, 0, 0, stack[-1] if stack else None, self.op, note)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name, info=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0, 0, parent, self.op, info)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, rows, op):
        """Append spans recorded in another process (rows from ``Span.as_row``)."""
        offset = len(self.spans)
        for name, start, end, parent, info in rows:
            parent = None if parent is None else parent + offset
            info = tuple(info) if isinstance(info, list) else info
            self.spans.append(Span(name, start, end, parent, op, info))


# --- what gets wrapped -------------------------------------------------------


def _lmmse_span_name(design, observations, sigma2, prior):
    # Split by the prior the benchmark passed: full rank or rank deficient.
    cov = prior.covariance
    full_rank = np.linalg.matrix_rank(cov) == cov.shape[0]
    return "estimators.lmmse_info" if full_rank else "estimators.lmmse_obs"


def _curve_points(design, amplitudes, *args, **kwargs):
    return int(np.size(amplitudes))


def _grid_points(*args, **kwargs):
    return MAX_MSE_GRID_POINTS


def _rapp_triple(params, *args, **kwargs):
    return (params.gain, params.v_sat, params.smoothness)


# (module, attribute, span name, info).  Same-named spans from different
# modules are the same layer function reached through another caller.
WRAPPED = (
    ("cli", "load_prior", "prior.csv_io", None),
    ("experiments", "run_fig1", "experiments.run_fig1", None),
    ("experiments", "run_fig2", "experiments.run_fig2", None),
    ("experiments", "run_fig3", "experiments.run_fig3", None),
    ("experiments", "run_fig4", "experiments.run_fig4", None),
    ("experiments", "design_table", "experiments.design_table", None),
    ("experiments", "estimation_table", "experiments.estimation_table", None),
    ("experiments", "estimate_from_files", "experiments.estimate_from_files", None),
    ("experiments", "read_pilot_csv", "experiments.csv_io", None),
    ("experiments", "read_observation_csv", "experiments.csv_io", None),
    ("experiments", "CsvTable.to_csv", "experiments.csv_io", None),
    ("experiments", "CsvTable.write", "experiments.csv_io", None),
    ("experiments", "mse_curve", "estimators.mse_curve", _curve_points),
    ("experiments", "ls_estimate", "estimators.ls_estimate", None),
    ("experiments", "lmmse_estimate", _lmmse_span_name, None),
    ("experiments", "build_prior", "prior.build_prior", None),
    ("experiments", "draw_rapp_params", "prior.draw_rapp_params", None),
    ("experiments", "fit_polynomial_to_curve", "prior.fit_polynomial_to_curve", _rapp_triple),
    ("experiments", "rapp_response", "pa_model.rapp_response", None),
    ("experiments", "build_design_matrix", "pa_model.build_design_matrix", None),
    ("prior", "draw_rapp_params", "prior.draw_rapp_params", None),
    ("prior", "fit_polynomial_to_curve", "prior.fit_polynomial_to_curve", _rapp_triple),
    ("prior", "rapp_response", "pa_model.rapp_response", None),
    ("prior", "PriorStatistics", "estimators.prior_statistics", None),
    ("design", "optimal_support_points", "design.optimal_support_points", None),
    ("design", "exchange_search_verify", "design.exchange", None),
    ("design", "d_criterion", "design.d_criterion", None),
    ("design", "build_design_matrix", "pa_model.build_design_matrix", None),
    ("estimators", "max_prediction_mse", "estimators.max_prediction_mse", _grid_points),
    ("estimators", "mse_curve", "estimators.mse_curve", _curve_points),
    ("estimators", "ls_estimate", "estimators.ls_estimate", None),
    ("estimators", "lmmse_estimate", _lmmse_span_name, None),
    ("pa_model", "build_design_matrix", "pa_model.build_design_matrix", None),
    ("pa_model", "rapp_response", "pa_model.rapp_response", None),
)


def _resolve(package, module, attribute):
    owner = getattr(package, module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def _installed(tracer, package, op):
    saved = []
    try:
        for module, attribute, name, info in WRAPPED:
            owner, leaf = _resolve(package, module, attribute)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, info))
        build_parser = package.cli.build_parser
        saved.append((package.cli, "build_parser", build_parser))

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
            return parser

        package.cli.build_parser = tracer.wrap("cli.parse", traced_build_parser)
        tracer.op = op
        yield tracer
    finally:
        tracer.op = None
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def installed(tracer, package, op):
    """Wrappers in place for one op; a no-op context when ``tracer`` is None."""
    if tracer is None:
        return nullcontext()
    return _installed(tracer, package, op)


# --- analysis ----------------------------------------------------------------


def _covered(interval, pieces):
    """Length of the part of ``interval`` covered by the union of ``pieces``."""
    lo, hi = interval
    total, reach = 0, lo
    for start, end in sorted(pieces):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the time its child spans cover (ns)."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered((span.start, span.end), children[i])
        for i, span in enumerate(spans)
    ]


def _outermost(spans, index):
    """True when no enclosing span carries the same name."""
    name, parent = spans[index].name, spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


# Per-layer metrics from spans, with their units.  Times and counts are per
# traced op.  A layer the workload does not reach reads 0.
SPAN_METRICS = {
    "cli.parse_ms": "ms",
    "cli.self_ms": "ms",
    "experiments.self_ms": "ms",
    "experiments.csv_io_ms": "ms",
    "design.optimal_support_points.calls": "count",
    "design.optimal_support_points.ms": "ms",
    "design.exchange.ms": "ms",
    "design.d_criterion.ms": "ms",
    "estimators.max_prediction_mse.calls": "count",
    "estimators.max_prediction_mse.ms": "ms",
    "estimators.mse_curve.calls": "count",
    "estimators.mse_curve.ms": "ms",
    "estimators.mse_points_per_s": "1/s",
    "estimators.ls_estimate.ms": "ms",
    "estimators.lmmse_info.ms": "ms",
    "estimators.lmmse_obs.ms": "ms",
    "estimators.prior_statistics.calls": "count",
    "estimators.prior_statistics.ms": "ms",
    "prior.build_prior.calls": "count",
    "prior.build_prior.self_ms": "ms",
    "prior.realizations_fitted": "count",
    "prior.useful_fit_ratio": "ratio",
    "prior.fits_per_s": "1/s",
    "prior.draw_rapp_params.calls": "count",
    "prior.draw_rapp_params.ms": "ms",
    "prior.fit_polynomial_to_curve.calls": "count",
    "prior.fit_polynomial_to_curve.ms": "ms",
    "prior.csv_io_ms": "ms",
    "pa_model.rapp_response.calls": "count",
    "pa_model.rapp_response.ms": "ms",
    "pa_model.build_design_matrix.calls": "count",
    "pa_model.build_design_matrix.ms": "ms",
}


IMPORT_METRICS = {
    "import.interpreter_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.patrain_ms": "ms",
}

# Everything a traced run reports: import probes, the tail and the tracing
# overhead of the untraced/traced op pairs, span metrics, and the one value a
# workload computes from its outputs.
PER_LAYER_UNITS = {
    **IMPORT_METRICS,
    "op_ms.tail": "ms",
    "trace.overhead_ms": "ms",
    **SPAN_METRICS,
    "design.exchange.logdet_gap_max": "nat",
}


def span_metrics(spans, n_ops):
    """Per-layer metrics (see ``SPAN_METRICS``) over the spans of ``n_ops`` ops."""
    indices = [i for i, span in enumerate(spans) if span.op is not None]
    selfs = self_times(spans)
    calls, total_ns, self_ns = {}, {}, {}
    for i in indices:
        name = spans[i].name
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        if _outermost(spans, i):
            total_ns[name] = total_ns.get(name, 0) + spans[i].end - spans[i].start

    def per_op_ms(ns):
        return ns / 1e6 / n_ops

    def count(name):
        return calls.get(name, 0) / n_ops

    def ms(name):
        return per_op_ms(total_ns.get(name, 0))

    def rate(amount, names):
        seconds = sum(total_ns.get(name, 0) for name in names) / 1e9
        return amount / seconds if seconds > 0 else 0.0

    mse_names = ("estimators.mse_curve", "estimators.max_prediction_mse")
    points = sum(spans[i].info for i in indices if spans[i].name in mse_names)
    fit_name = "prior.fit_polynomial_to_curve"
    fits = calls.get(fit_name, 0)
    distinct_per_op = {}
    for i in indices:
        if spans[i].name == fit_name:
            distinct_per_op.setdefault(spans[i].op, set()).add(spans[i].info)
    distinct = sum(len(triples) for triples in distinct_per_op.values())
    experiments_self = sum(
        ns for name, ns in self_ns.items()
        if name.startswith("experiments.") and name != "experiments.csv_io"
    )
    values = {
        "cli.parse_ms": ms("cli.parse"),
        "cli.self_ms": per_op_ms(self_ns.get("cli.main", 0)),
        "experiments.self_ms": per_op_ms(experiments_self),
        "experiments.csv_io_ms": ms("experiments.csv_io"),
        "design.exchange.ms": ms("design.exchange"),
        "design.d_criterion.ms": ms("design.d_criterion"),
        "estimators.mse_points_per_s": rate(points, mse_names),
        "estimators.ls_estimate.ms": ms("estimators.ls_estimate"),
        "estimators.lmmse_info.ms": ms("estimators.lmmse_info"),
        "estimators.lmmse_obs.ms": ms("estimators.lmmse_obs"),
        "prior.build_prior.calls": count("prior.build_prior"),
        "prior.build_prior.self_ms": per_op_ms(self_ns.get("prior.build_prior", 0)),
        "prior.realizations_fitted": fits / n_ops,
        "prior.useful_fit_ratio": distinct / fits if fits else 0.0,
        "prior.fits_per_s": rate(fits, (fit_name,)),
        "prior.csv_io_ms": ms("prior.csv_io"),
    }
    for name in (
        "design.optimal_support_points",
        "estimators.max_prediction_mse",
        "estimators.mse_curve",
        "estimators.prior_statistics",
        "prior.draw_rapp_params",
        "prior.fit_polynomial_to_curve",
        "pa_model.rapp_response",
        "pa_model.build_design_matrix",
    ):
        values[f"{name}.calls"] = count(name)
        values[f"{name}.ms"] = ms(name)
    return {name: values[name] for name in SPAN_METRICS}


def importtime_ms(stderr_text):
    """numpy, scipy and patrain-own shares of ``import patrain`` (ms).

    Reads ``python -X importtime`` output.  Each module's self time under
    ``patrain`` goes to the outermost numpy or scipy import above it (or that
    it is), else to patrain itself.  So ``scipy`` is everything that importing
    scipy pulled in, and the three shares add up to ``import patrain``.
    """
    entries = []
    for line in stderr_text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # not an importtime line, or its header
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip().split(".")[0], int(fields[0]) / 1000.0))
    # importtime prints a module after its children; reversed, parents come first.
    shares = {"numpy": 0.0, "scipy": 0.0, "patrain": 0.0}
    stack = []
    for depth, package, self_ms in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, package))
        chain = [p for _, p in stack]
        if "patrain" in chain:
            owner = next((p for p in chain if p in ("numpy", "scipy")), "patrain")
            shares[owner] += self_ms
    return shares
