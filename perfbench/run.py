#!/usr/bin/env python3
"""nwtaut benchmark runner (standard library only).

    python3 perfbench/run.py --workload tau_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload all --record

Each workload runs in its own process, single-threaded, as a closed loop:
one caller runs the items of a pass back to back, and passes repeat (new
seeded inputs each pass) until --seconds have gone and at least MIN_ITEMS
items have run.  Every item is checked outside its timed region; fixed
items are also compared with the digests in reference.json, recorded at the
seed version with --record.

--trace 0 reports the end-to-end metrics: set-up (median of SETUP_REPS fresh
processes that import nwtaut and build the fixed objects), per-pass wall
time, per-item latency, the workload's `nwtaut` command run in-process
through cli.main (median of CLI_REPS steady runs, one after each pass and
the rest at the end), and peak RSS.

Times are reported at a reference interpreter speed.  On a shared 2-vCPU
host the same Python code runs at two speeds about 1.55x apart, switching
within seconds, so raw run medians differ by 25% from run to run.  A fixed
piece of interpreter work (calibration_loop) is therefore timed before and
after every ~CHUNK_S of timed work, and each raw time is multiplied by
CAL_REF_S / (mean of the two loop times).  Raw times are kept in the BENCH
file beside the scaled ones.

--trace 1 alternates an untraced pass with a traced cycle (set-up, the same
pass, the command) and reports the per-layer metrics in raw seconds; it also
checks that tracing changed no output and that every patched binding was
restored.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A fuller record, with the seed and the environment,
goes to .perfbench/BENCH_<workload>.json; traced runs also write their spans
to .perfbench/spans-<workload>-seed<seed>.tsv.gz.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
NAMES = ["tau_sweep", "nw_audit", "kernel", "pipeline"]

MIN_ITEMS = 100
SETUP_REPS = 5
CLI_REPS = 15
CHUNK_S = 0.005
CAL_REF_S = 0.003  # calibration_loop in the fast phase, Python 3.11, 2-vCPU x86-64 VM
STEADY = 0.1

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "cli_s": "s", "peak_rss_mb": "MB",
}
# reported beside the end-to-end metrics in the summary and BENCH file; they
# are fixed by the inputs (error_rate is 0 at the seed version), so the
# JSON result line leaves them out
REPORTED = {"error_rate": "share", "proof_bits": "bits"}

PER_LAYER = {
    "gf.GF.calls": "count", "gf.GF.self_s": "s",
    "designs.block.calls": "count", "designs.block.self_s": "s",
    "designs.verify_design.self_s": "s",
    "nwcore.nw_eval.self_s": "s", "nwcore.ttable_from_seed.self_s": "s",
    "nwcore.err_triple.self_s": "s", "nwcore.tau_of.self_s": "s",
    "nwcore.tau_of.calls": "count", "nwcore.full_range.self_s": "s",
    "circuits.circuit_to_formula.self_s": "s", "circuits.circuit_clauses_mapped.self_s": "s",
    "circuits.circuit_clauses.self_s": "s", "circuits.sat_search.self_s": "s",
    "circuits.sat_search.calls": "count", "circuits.universal_evaluator.self_s": "s",
    "circuits.wire_values.self_s": "s",
    "cnf.dpll_solve.self_s": "s", "cnf.dpll_solve.calls": "count",
    "cnf.dpll_solve.unsat": "count", "cnf.dpll_solve.clauses_in": "count",
    "cnf.dpll_solve.vars_in": "count", "cnf.to_dimacs.self_s": "s", "cnf.dimacs_bytes": "bytes",
    "formulas.to_text.calls": "count", "formulas.to_text.self_s": "s",
    "formulas.parse.self_s": "s", "formulas.substitute.self_s": "s",
    "formulas.evaluate.self_s": "s", "formulas.decode_k.self_s": "s",
    "formulas.is_tautology.self_s": "s",
    "frege.proof_size_bits.self_s": "s", "frege.proof_size_bits.calls": "count",
    "frege.serialize_proof.self_s": "s", "frege.parse_proof.self_s": "s",
    "frege.check.self_s": "s", "frege.prove_true_sentence.self_s": "s",
    "frege.discharge.self_s": "s", "frege.prove_tautology.total_s": "s",
    "frege.proof_lines": "count", "frege.distinct_subterm_ratio": "ratio",
    "proof_bits": "bits",
    "proofsys.simulate.self_s": "s", "proofsys.alpha_k.self_s": "s",
    "proofsys.d4_from_sat.self_s": "s", "proofsys.check_plus_alpha.self_s": "s",
    "proofsys.check_advice.self_s": "s",
    "tasks.solve_err.self_s": "s", "tasks.solve_pair.self_s": "s",
    "tasks.solve_cert.self_s": "s", "tasks.cert.codes_swept": "count",
    "tasks.cert.codes_decodable": "count",
    "cli.main.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

clock = time.perf_counter


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def calibration_loop() -> float:
    """Seconds taken by fixed interpreter work: integer arithmetic, then
    tuple, dict, list and string operations.  The host's slow phase slows
    the mix by about the factor it slows nwtaut (1.57x against 1.47-1.61x
    for items of the four workloads); arithmetic alone slows only 1.4x."""
    t0 = clock()
    s = 0
    for i in range(20000):
        s += i * i % 7
    d: dict = {}
    out: list = []
    for i in range(3000):
        t = ("and", i, ("var", i % 13))
        d[t] = len(out)
        out.append(d.get(t))
        out.append(f"x{i}")
    return clock() - t0


def import_check() -> str | None:
    import nwtaut

    if not os.path.abspath(nwtaut.__file__).startswith(SRC + os.sep):
        return f"nwtaut imported from {nwtaut.__file__}, not from {SRC}"
    return None


# ---------------------------------------------------------------------------
# one pass


def run_pass(items, reference: dict, tracer=None, scaled: bool = True):
    """Run every item back to back; only item.run is timed, and only it is
    traced.  Returns (latencies, outcomes, problems, failed items), where
    outcomes pair each item with its Checked result (None when it raised).
    Latencies are scaled to the reference speed unless ``scaled`` is off;
    proof objects are kept only for a traced pass."""
    latencies, outcomes, problems = [], [], []
    failed = 0
    chunk: list[int] = []
    chunk_raw = 0.0
    before = calibration_loop() if scaled else 0.0
    for n, item in enumerate(items):
        seen = len(problems)
        out = exc = None
        if tracer:
            tracer.paused = False
        t0 = clock()
        try:
            out = item.run()
        except Exception as e:  # an item that raises is an error, not a crash
            exc = e
        dt = clock() - t0
        if tracer:
            tracer.paused = True
        latencies.append(dt)
        checked = None
        if exc is not None:
            problems.append(f"{item.label}: raised {type(exc).__name__}: {exc}")
        else:
            try:
                checked = item.check(out)
            except Exception as e:
                problems.append(f"{item.label}: check raised {type(e).__name__}: {e}")
            else:
                if not checked.ok:
                    problems.append(f"{item.label}: output disagrees with the reference")
                elif item.fixed and reference.get(item.label) != checked.digest:
                    problems.append(f"{item.label}: digest {checked.digest} != recorded "
                                    f"{reference.get(item.label)}")
                if not tracer:
                    checked.proofs = ()
        out = None
        failed += len(problems) > seen
        outcomes.append((item, checked))
        if scaled:
            chunk.append(n)
            chunk_raw += dt
            if chunk_raw >= CHUNK_S or n == len(items) - 1:
                after = calibration_loop()
                factor = 2 * CAL_REF_S / (before + after)
                for i in chunk:
                    latencies[i] *= factor
                before, chunk, chunk_raw = after, [], 0.0
    return latencies, outcomes, problems, failed


# ---------------------------------------------------------------------------
# the workload's nwtaut command


def strip_wallclock(name: str, text: str) -> str:
    if not name.endswith(".manifest"):
        return text
    return "".join(line for line in text.splitlines(True) if not line.startswith("wallclock "))


def run_cli(workload, tag: str, tracer=None):
    """Run the workload's command(s) through cli.main in a scratch directory
    under .perfbench.  Returns (raw seconds, digest, bytes written, problems)."""
    import reference as ref
    from nwtaut import cli

    spec = workload.cli()
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name, text in spec.inputs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    cwd = os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    try:
        if tracer:
            tracer.paused = False
        t0 = clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            codes = [cli.main(list(argv)) for argv in spec.commands]
        seconds = clock() - t0
    finally:
        if tracer:
            tracer.paused = True
        os.chdir(cwd)
    files = {}
    for dirpath, _, names in os.walk(workdir):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), workdir)
            if rel not in spec.inputs:
                with open(os.path.join(dirpath, name)) as fh:
                    files[rel] = fh.read()
    shutil.rmtree(workdir)
    written = sum(len(text.encode()) for text in files.values())
    problems = []
    if codes != spec.exit_codes:
        problems.append(f"cli: exit codes {codes}, expected {spec.exit_codes}: {stderr.getvalue()}")
    for text in spec.must_print:
        if text not in stdout.getvalue():
            problems.append(f"cli: output lacks {text!r}")
    digest = ref.digest(stdout.getvalue(), codes,
                        sorted((n, strip_wallclock(n, t)) for n, t in files.items()))
    return seconds, digest, written, problems


# ---------------------------------------------------------------------------
# runs


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def setup_probe(name: str) -> int:
    """Child process of measure_setup: prints raw and scaled set-up seconds."""
    before = calibration_loop()
    t0 = clock()
    import workloads

    workloads.WORKLOADS[name]().setup()
    raw = clock() - t0
    problem = import_check()
    if problem:
        return fail(problem)
    print(json.dumps([raw, raw * 2 * CAL_REF_S / (before + calibration_loop())]))
    return 0


def measure_setup(name: str) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds in fresh processes: import nwtaut and
    build the workload's fixed objects."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def untraced_run(workload, args, reference: dict) -> dict:
    setup_times = measure_setup(workload.name)
    walls, raw_walls, latencies, problems, proof_bits = [], [], [], [], []
    cli_times, steady = [], []
    attempted = failed = 0

    def command_run() -> None:
        """One timed run of the workload's command.  A run whose two
        calibrations differ by more than STEADY ran across a speed switch,
        which scaling cannot correct, so it does not count as steady."""
        nonlocal attempted, failed
        before = calibration_loop()
        seconds, digest, _, probs = run_cli(workload, f"cli{len(cli_times)}")
        after = calibration_loop()
        cli_times.append((seconds, seconds * 2 * CAL_REF_S / (before + after)))
        if abs(before - after) <= STEADY * (before + after) / 2:
            steady.append(cli_times[-1][1])
        if digest != reference.get("cli"):
            probs.append(f"cli: digest {digest} != recorded {reference.get('cli')}")
        attempted += 1
        failed += bool(probs)
        problems.extend(probs)

    t_start = clock()
    all_outcomes = []
    pass_no = 0
    while True:
        items = workload.items(args.seed, pass_no)
        t0 = clock()
        lats, outcomes, probs, n_failed = run_pass(items, reference)
        raw_walls.append(clock() - t0)
        walls.append(sum(lats))
        latencies += lats
        attempted += len(items)
        failed += n_failed
        problems += probs
        proof_bits.append(sum(c.proof_bits for _, c in outcomes if c is not None))
        all_outcomes += outcomes
        pass_no += 1
        # command runs are spread over the run, one after each pass, so that
        # their median spans the host's slow spells like the passes do
        command_run()
        if clock() - t_start >= args.seconds and attempted >= MIN_ITEMS:
            break
    run_problems = workload.final_checks(all_outcomes)
    problems += run_problems
    failed += len(run_problems)
    while len(steady) < CLI_REPS and len(cli_times) < 3 * CLI_REPS:
        command_run()
    metrics = {
        "setup_s": statistics.median(s for _, s in setup_times),
        "wall_s": statistics.median(walls),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * percentile(latencies, 90),
        "cli_s": statistics.median(steady or [s for _, s in cli_times]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "proof_bits": statistics.median(proof_bits),
        "passes": pass_no,
        "items": len(latencies),
        "items_beyond_p90": sum(x > metrics["item_p90_ms"] / 1e3 for x in latencies),
        "scaled_pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "raw_setup_s": [r for r, _ in setup_times],
        "raw_cli_s": [r for r, _ in cli_times],
        "steady_cli_runs": len(steady),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "extra": extra}


def traced_run(workload, args, reference: dict) -> dict:
    import reference as ref
    from tracer import Tracer

    tracer = Tracer()
    tracer.hooks = {
        "cnf.dpll_solve": lambda a, result, parent: (
            tracer.count("cnf.dpll_solve.unsat", result is None),
            tracer.count("cnf.dpll_solve.clauses_in", len(a[0].clauses)),
            tracer.count("cnf.dpll_solve.vars_in", a[0].nvars)),
        "cnf.to_dimacs": lambda a, result, parent: tracer.count("cnf.dimacs_bytes", len(result)),
        # codes the Cert sweep looked at, and those that decode to a formula
        "formulas.decode_k": lambda a, result, parent: (
            parent >= 0 and tracer.names[tracer.s_name[parent]] == "tasks.solve_cert"
            and (tracer.count("tasks.cert.codes_swept"),
                 tracer.count("tasks.cert.codes_decodable", result is not None))),
    }
    t_start = clock()
    cycles, walls, shares, problems = [], [], [], []
    attempted = failed = 0
    while True:
        # every cycle runs pass 0 of the seed, so counts repeat exactly
        items = workload.items(args.seed, 0)
        lats, plain_out, probs, n_failed = run_pass(items, reference, scaled=False)
        plain_wall = sum(lats)
        attempted += len(items)
        failed += n_failed
        problems += probs

        tracer.clear()
        tracer.counters = {}
        tracer.install()
        try:
            tracer.paused = False
            traced_wl = type(workload)()
            traced_wl.setup()
            tracer.paused = True
            prep = traced_wl.prepare()
            items = traced_wl.items(args.seed, 0)
            pass_first = tracer.span_count()
            lats, traced_out, probs, n_failed = run_pass(items, reference, tracer, scaled=False)
            traced_wall = sum(lats)
            pass_last = tracer.span_count()
            _, _, written, cli_probs = run_cli(traced_wl, f"trace{len(cycles)}", tracer)
        finally:
            tracer.paused = True
            tracer.uninstall()
        attempted += len(items) + 1
        failed += n_failed + bool(cli_probs) + len(prep)
        problems += prep + probs + cli_probs
        if not tracer.restored():
            problems.append("trace: a patched binding was not restored")
            failed += 1
        if [c and c.digest for _, c in plain_out] != [c and c.digest for _, c in traced_out]:
            problems.append("trace: traced outputs differ from untraced outputs")
            failed += 1

        self_s, total_s, calls = tracer.self_times()
        pass_self, _, _ = tracer.self_times(pass_first, pass_last)
        m = {}
        for name in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if stat == "self_s":
                m[name] = self_s.get(layer, 0.0)
            elif stat == "total_s":
                m[name] = total_s.get(layer, 0.0)
            elif stat == "calls":
                m[name] = calls.get(layer, 0)
            else:
                m[name] = tracer.counters.get(name, 0)
        proofs = [p for _, c in traced_out if c is not None for p in c.proofs]
        distinct, occurrences = sharing_of(ref, proofs)
        m["frege.proof_lines"] = sum(len(p.lines) for p in proofs)
        m["frege.distinct_subterm_ratio"] = distinct / occurrences if occurrences else 0.0
        m["proof_bits"] = sum(c.proof_bits for _, c in traced_out if c is not None)
        m["cli.bytes_written"] = written
        m["trace.overhead_s"] = traced_wall - plain_wall
        m["trace.unattributed_s"] = traced_wall - sum(pass_self.values())
        cycles.append(m)
        walls.append((plain_wall, traced_wall))
        shares.append({k: v / traced_wall for k, v in pass_self.items()})
        if len(cycles) == 1:
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.tsv.gz"))
        if clock() - t_start >= args.seconds:
            break
    # times are medians over cycles; counts are the same in every cycle
    metrics = {name: statistics.median(c[name] for c in cycles) if unit == "s" else cycles[0][name]
               for name, unit in PER_LAYER.items()}
    share = {k: statistics.median(s.get(k, 0.0) for s in shares) for k in shares[0]}
    extra = {
        "cycles": len(cycles),
        "pass_walls_s": walls,
        "pass_self_share": dict(sorted(share.items(), key=lambda kv: -kv[1])),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "extra": extra}


def sharing_of(ref, proofs) -> tuple[int, int]:
    """Distinct subterms and subterm occurrences over every formula a proof's
    text prints (line formulas and axiom substitutions), per proof."""
    distinct = occurrences = 0
    for proof in proofs:
        formulas = []
        for line in proof.lines:
            formulas.append(line.formula)
            if line.just[0] == "axiom":
                formulas += list(line.just[2].values())
        d, o = ref.sharing(formulas)
        distinct += d
        occurrences += o
    return distinct, occurrences


# ---------------------------------------------------------------------------
# reference digests


def record(names) -> int:
    import workloads

    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    for name in names:
        w = workloads.WORKLOADS[name]()
        w.setup()
        problems = w.prepare()
        entry = {}
        for item in w.items("record", 0):
            if item.fixed:
                checked = item.check(item.run())
                if not checked.ok:
                    problems.append(f"{item.label}: output disagrees with the reference")
                entry[item.label] = checked.digest
        _, entry["cli"], _, cli_problems = run_cli(w, "record")
        problems += cli_problems
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return fail(f"{name}: not recording digests of wrong outputs")
        data[name] = entry
        print(f"recorded {len(entry)} digests for {name}")
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_one(args) -> int:
    import workloads

    env = environment()
    if not os.path.exists(REFERENCE):
        return fail(f"missing {REFERENCE}; record it with --record")
    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload, {})
    w = workloads.WORKLOADS[args.workload]()
    w.setup()
    prep_problems = w.prepare()
    if args.trace:
        result = traced_run(w, args, reference)
    else:
        result = untraced_run(w, args, reference)
    result["problems"] = prep_problems + result["problems"]
    result["failed"] += len(prep_problems)
    units = PER_LAYER if args.trace else {**END_TO_END, **REPORTED}
    values = {**result["metrics"], **result["extra"],
              "error_rate": result["failed"] / result["attempted"]}
    correct = result["failed"] == 0

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:40s} {values[name]!r:>24} {unit}")
    for p in result["problems"][:20]:
        print(f"ERROR {p}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{args.workload}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "correct": correct,
                   "attempted": result["attempted"], "failed": result["failed"],
                   "problems": result["problems"][:200],
                   "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
                   "details": {k: v for k, v in values.items() if k not in units}}, fh, indent=1)
    metrics = {k: {"value": result["metrics"][k], "unit": u}
               for k, u in (PER_LAYER if args.trace else END_TO_END).items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints each metric by name
    with its unit, per workload."""
    results = {}
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the fixed-slice and command digests in reference.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # the benchmark measures the checkout's source tree, nothing installed
    if not os.path.isfile(os.path.join(SRC, "nwtaut", "__init__.py")):
        return fail(f"no nwtaut source tree at {SRC}")
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        return setup_probe(args.workload)
    problem = import_check()
    if problem:
        return fail(problem)
    if args.record:
        return record(NAMES if args.workload == "all" else [args.workload])
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
