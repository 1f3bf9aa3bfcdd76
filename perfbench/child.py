"""One workload in a fresh interpreter.

    python3 perfbench/child.py <spec.json> measure|trace

`measure` times set-up, from before `import qecbound` to a ready decoder,
then repeats the workload's unit of work, untraced, until the spec's
`seconds` are spent.  `trace` sets up under the outside-in tracer, then
alternates untraced and traced units.
Every unit's outputs are checked against the block oracle outside the
timed regions.  The last line of standard output is one JSON object.
"""

import hashlib
import json
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter

# Span names of the layers the driver calls directly; with the driver's
# own time (`<self>`) they must add up to the run time.
RUN_CHILDREN = [
    "decoders.decode", "errorspace.syndrome", "errorspace.visited_add",
    "polynomial.accumulate", "polynomial.optimizer", "polynomial.terms",
    "sampling", "sampling.kl",
]


class _NoSpan:
    def __call__(self, name):
        return self

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def setup(spec, span=_NoSpan()):
    """Load the model and build the decoder; return what a unit needs."""
    from qecbound import (
        Hyperrectangle,
        build_greedy_decoder,
        build_ml_decoder,
        compile_to_dem,
        connect_external_decoder,
        parse_dem,
        parse_program,
    )

    path = spec["input"]
    with span("compiler.load"):
        text = Path(path).read_text()
        if path.endswith(".qec"):
            model = compile_to_dem(parse_program(text))
        else:
            model = parse_dem(text)
    v = model.concrete_probabilities()
    box = None
    with span("decoders.build"):
        if spec["mode"] == "robustness":
            box = Hyperrectangle.scaled(v, *spec["box_scale"])
            v0 = tuple(0.5 * (lo + hi) for lo, hi in zip(box.lower, box.upper))
            decoder = build_greedy_decoder(model, v0)
        elif spec["decoder"] == "greedy":
            decoder = build_greedy_decoder(model, v)
        elif spec["decoder"] == "ml":
            decoder = build_ml_decoder(model, v)
        else:
            cmd = f"{shlex.quote(sys.executable)} -m qecbound.cli serve-ml {shlex.quote(path)}"
            decoder = connect_external_decoder(cmd, model.n_detectors, model.n_observables)
    return model, v, box, decoder


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Oracle:
    """Exact reference values for one workload's model and decoder."""

    def __init__(self, spec, model, v, box, decoder) -> None:
        import oracle

        self.oracle = oracle
        self.spec = spec
        self.det = model.det_footprints
        self.obs = model.obs_footprints
        self.decoder = decoder
        self.box = box
        self._vertex_rates: dict[tuple, float] = {}
        if spec["decoder"] == "greedy":
            self.exact = self.rate_at(v)
        else:
            self.exact = oracle.ml_rate(v, self.det, self.obs)

    def rate_at(self, rates) -> float:
        key = tuple(rates)
        if key not in self._vertex_rates:
            self._vertex_rates[key] = self.oracle.rate_with_decoder(
                key, self.det, self.obs, self.decoder.decode)
        return self._vertex_rates[key]

    def check_call(self, trace, wall: float, checks: Checks) -> None:
        recs = trace.records
        sound = [r for r in recs if r.sound]
        if self.spec["mode"] == "robustness":
            witness = trace.final.get("witness_vertex")
            checks.expect(witness is not None, "robustness run reports no witness vertex")
            if witness is not None:
                p_w = self.rate_at(witness)
                p_up = self.rate_at(self.box.upper)
                for r in sound:
                    checks.expect(r.lower <= p_w,
                                  f"lower {r.lower!r} > P_L(witness) {p_w!r} at {r.shots} shots")
                    checks.expect(r.upper >= p_up,
                                  f"upper {r.upper!r} < P_L(all-upper) {p_up!r} at {r.shots} shots")
        else:
            for r in sound:
                checks.expect(r.lower <= self.exact <= r.upper,
                              f"sound [{r.lower!r}, {r.upper!r}] misses exact "
                              f"{self.exact!r} at {r.shots} shots")
        for i, r in enumerate(recs):
            if r.sound:
                continue
            prev = recs[i - 1] if i else None
            checks.expect(prev is not None and prev.sound
                          and prev.lower <= r.lower and r.upper <= prev.upper,
                          f"probabilistic [{r.lower!r}, {r.upper!r}] not nested at {r.shots} shots")
        last = recs[-1].elapsed_s if recs else -1.0
        checks.expect(0.0 <= last <= wall and wall - last <= 0.05 + 0.05 * wall,
                      f"final elapsed_s {last!r} disagrees with wall time {wall!r}")

    def contains(self, r) -> bool:
        return r.lower <= self.exact <= r.upper


def run_configs(spec):
    from qecbound import RunConfig

    if spec["workload"] == "hybrid-rep3":
        return [RunConfig(sample_count=spec["sample_count"], max_shots=spec["max_shots"], seed=s)
                for s in spec["run_seeds"]]
    return [RunConfig(mode=spec["mode"], strategy=spec["strategy"], max_shots=spec["max_shots"])]


def first_at_target(trace, target: float):
    for r in trace.records:
        if r.lower > 0.0 and r.upper <= target * r.lower:
            return r.elapsed_s
    return None


def fingerprint(trace) -> list:
    return [[r.shots, r.lower, r.upper, r.sound] for r in trace.records]


def run_unit(spec, model, v, box, decoder, configs, oracle, checks,
             span=_NoSpan(), on_call=None):
    """Run every call of one unit; return its summary, the records it
    produced, and the span ids of its run calls (traced runs only)."""
    import qecbound.driver as driver

    calls = []
    prints = []
    roots = []
    for cfg in configs:
        with span("driver.run") as root:
            t0 = clock()
            if spec["mode"] == "robustness":
                trace = driver.run_robustness(model, decoder, box, cfg)
            else:
                trace = driver.run_accuracy(model, decoder, v, cfg)
            wall = clock() - t0
        roots.append(root)
        calls.append((trace, wall))
        oracle.check_call(trace, wall, checks)
        prints.append(fingerprint(trace))
        if on_call is not None:
            on_call(trace)
    reached = [first_at_target(t, spec["target"]) for t, _ in calls]
    # A missed target is censored at the call's last record.
    t2t = [x if x is not None else t.records[-1].elapsed_s for x, (t, _) in zip(reached, calls)]
    shots = sum(t.final["shots"] for t, _ in calls)
    run_s = sum(w for _, w in calls)
    summary = {
        "run_s": run_s,
        "shots": shots,
        "shots_per_s": shots / run_s,
        "time_to_target_s": statistics.fmean(t2t),
        "target_missed": sum(1 for x in reached if x is None),
    }
    return summary, prints, roots


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(spec, t_begin):
    checks = Checks()
    model, v, box, decoder = setup(spec)
    setup_s = clock() - t_begin
    import numpy

    oracle = Oracle(spec, model, v, box, decoder)
    configs = run_configs(spec)
    units = []
    first = None
    deadline = clock() + spec["seconds"]
    try:
        while len(units) < spec["min_units"] or clock() < deadline:
            summary, prints, _ = run_unit(spec, model, v, box, decoder, configs, oracle, checks)
            if first is None:
                first = prints
            checks.expect(prints == first, "repeated unit produced different records")
            units.append(summary)
    finally:
        decoder.close()
    return {
        "setup_s": setup_s,
        "records_digest": hashlib.sha256(json.dumps(first).encode()).hexdigest(),
        "units": units,
        "exact": oracle.exact,
        "peak_rss_mb": peak_rss_mb(),
        "children_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "numpy": numpy.__version__,
        "checks": vars(checks),
    }


class _TraceCounts:
    """Per-unit facts read from the traces the run calls return."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.sound = self.prob = self.contained = 0
        self.accepted = 0
        self.draws = 0.0  # accepted / unexplored mass, summed

    def __call__(self, trace) -> None:
        recs = trace.records
        for i, r in enumerate(recs):
            if r.sound:
                self.sound += 1
                continue
            # a probabilistic record follows its checkpoint's sound record
            self.prob += 1
            self.contained += self.oracle.contains(r)
            accepted = r.shots - recs[i - 1].shots
            self.accepted += accepted
            self.draws += accepted / (recs[i - 1].upper - recs[i - 1].lower)


def traced(spec):
    import numpy

    import qecbound  # noqa: F401  (the tracer wraps its modules)
    from tracer import DecoderProxy, Tracer

    checks = Checks()
    tracer = Tracer()
    with tracer.installed(), tracer.span("setup") as setup_root:
        model, v, box, decoder = setup(spec, tracer.span)
    setup_totals = tracer.totals(setup_root)
    oracle = Oracle(spec, model, v, box, decoder)
    table = getattr(decoder, "table", None)
    if table is not None:
        table_size = len(table)
    elif spec["decoder"] == "exec-ml":
        # the table lives in the decoder process; count its syndromes here
        table_size = oracle.oracle.syndrome_count(model.det_footprints)
    else:
        table_size = 0
    proxy = DecoderProxy(decoder, tracer)
    configs = run_configs(spec)

    untraced_run_s = []
    units = []
    first = None
    deadline = clock() + spec["seconds"]
    try:
        # Alternate untraced and traced units so that drift in machine
        # speed affects both sides of the overhead ratio alike.
        while len(units) < spec["min_units"] or clock() < deadline:
            summary, prints, _ = run_unit(spec, model, v, box, decoder, configs, oracle, checks)
            untraced_run_s.append(summary["run_s"])
            first = first or prints
            checks.expect(prints == first, "repeated unit produced different records")

            tracer.reset_counts()
            facts = _TraceCounts(oracle)
            mark = len(tracer.span_id)
            with tracer.installed():
                _, prints, roots = run_unit(spec, model, v, box, proxy, configs, oracle,
                                            checks, tracer.span, facts)
            checks.expect(prints == first, "traced unit produced different records")
            totals: dict[str, list] = {}
            for root in roots:
                for name, (n, s) in tracer.totals(root, mark).items():
                    entry = totals.setdefault(name, [0, 0.0])
                    entry[0] += n
                    entry[1] += s
            units.append(layer_metrics(totals, dict(tracer.counts), len(tracer.unique), facts))
    finally:
        proxy.close()
    close_s = tracer.end[-1] - tracer.start[-1]
    tracer.save(Path(spec["out_dir"]) / f"{spec['workload']}_seed{spec['seed']}_spans.npz")
    setup_layers = {
        "compiler.load_s": setup_totals.get("compiler.load", (0, 0.0))[1],
        "compiler.check_s": setup_totals.get("compiler.check", (0, 0.0))[1],
        "decoders.build_s": setup_totals.get("decoders.build", (0, 0.0))[1],
        "decoders.ml_table_size": table_size,
        "decoders.close_s": close_s,
    }
    return {
        "setup_layers": setup_layers,
        "units": units,
        "untraced_run_s": untraced_run_s,
        "exact": oracle.exact,
        "missing_targets": tracer.missing,
        "numpy": numpy.__version__,
        "checks": vars(checks),
    }


def layer_metrics(totals, counts, unique, facts):
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    decode_calls = counts.get("decoders.decode_calls", 0)
    syndromes = counts.get("decoders.syndromes", 0)
    accepted = facts.accepted
    opt_calls = calls("polynomial.optimizer")
    self_s = secs("<self>")
    run_s = secs("<root>")
    return {
        "driver.run_s": run_s,
        "driver.enumerate_self_s": self_s,
        "driver.checkpoints": facts.sound,
        "driver.prob_records": facts.prob,
        "decoders.decode_calls": decode_calls,
        "decoders.decode_s": secs("decoders.decode"),
        "decoders.syndromes": syndromes,
        "decoders.unique_frac": unique / syndromes if syndromes else 0.0,
        "decoders.syndromes_per_call": syndromes / decode_calls if decode_calls else 0.0,
        "errorspace.syndrome_calls": calls("errorspace.syndrome"),
        "errorspace.syndrome_s": secs("errorspace.syndrome"),
        "errorspace.visited_add_calls": calls("errorspace.visited_add"),
        "errorspace.visited_add_s": secs("errorspace.visited_add"),
        "errorspace.visited_extras": counts.get("errorspace.visited_extras", 0),
        "polynomial.accumulate_calls": calls("polynomial.accumulate"),
        "polynomial.accumulate_s": secs("polynomial.accumulate"),
        "polynomial.optimizer_calls": opt_calls,
        "polynomial.optimizer_s": secs("polynomial.optimizer"),
        "polynomial.terms_s": secs("polynomial.terms"),
        "polynomial.terms_count": counts.get("polynomial.terms_count", 0),
        "polynomial.derivative_calls": calls("polynomial.derivative"),
        "polynomial.derivative_s": secs("polynomial.derivative"),
        "polynomial.termwise_calls": calls("polynomial.termwise"),
        "polynomial.termwise_s": secs("polynomial.termwise"),
        "polynomial.exact_frac": (counts.get("polynomial.exact_sides", 0) / (2 * opt_calls)
                                  if opt_calls else 0.0),
        "sampling.calls": calls("sampling"),
        "sampling.s": secs("sampling"),
        "sampling.accepted": accepted,
        "sampling.s_per_accept": secs("sampling") / accepted if accepted else 0.0,
        "sampling.guard_trips": counts.get("sampling.guard_trips", 0),
        "sampling.acceptance_computed": facts.accepted / facts.draws if facts.draws else 0.0,
        "sampling.kl_s": secs("sampling.kl"),
        "sampling.containment": facts.contained / facts.prob if facts.prob else 0.0,
        "layer_sum_residual_s": run_s - self_s - sum(secs(n) for n in RUN_CHILDREN),
    }


def main() -> int:
    t_begin = clock()  # set-up is timed from before `import qecbound`
    spec = json.loads(Path(sys.argv[1]).read_text())
    role = sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if role == "measure":
        out = measure(spec, t_begin)
    elif role == "trace":
        out = traced(spec)
    else:
        raise SystemExit(f"unknown role {role!r}")
    import qecbound

    out["qecbound_file"] = qecbound.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
