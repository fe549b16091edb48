"""speckleq benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 30 --trace 0

Runs the workload's CLI invocations one after another, each in a fresh
interpreter (``child.py``) with ``--seed`` and an ``--out`` file in a
temporary directory under ``perfbench/.work``.  Only one child runs at a
time, ``SPECKLE_SEED`` is removed from its environment (it would override
``--seed``) and the BLAS thread count is left at its default and recorded.
Every output file is checked (``checks.py``); a non-zero exit or a bad file
counts as a failed invocation.

Passes over the workload repeat while at least half of the next one fits
in ``--seconds``.  With ``--trace 0`` the end-to-end metrics are, per
command, medians over passes, summed over the commands; times are scaled to
a reference machine speed by a probe timed in each child (``probe.py``).
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the span tracer (``spans.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import TRIALS, Table, check_output, read_output
from probe import REFERENCE_S
from spans import LAYERS
from workloads import COMMANDS, HELD_OUT_SEED, RECORDED_SEED, WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / f"seed-{RECORDED_SEED}.json"
HARD_LIMIT_S = 165.0  # a run must exit within 180 s
CHILD_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    """Outcome of one CLI invocation in its own interpreter."""

    label: str
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    rows: int = 0
    bytes: int = 0
    trial_evals: int = 0
    speed: float = 1.0  # REFERENCE_S / the child's probe time
    record: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPECKLE_SEED", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def trial_evals(label: str, table: Table) -> int:
    """Axis points x trials requested, read from the output file."""
    if "trials" in table.header:
        return int(sum(table.column("trials")))
    if label == "superres":
        return len({s for s in table.column("s") if s != 0.0}) * TRIALS
    if label == "fano-scatter":
        return len(table.rows)
    return 0


def invoke(command: Command, seed: int, workdir: Path, trace: bool, reference, timeout: float) -> Invocation:
    """Run one command in a fresh interpreter, then check its output file."""
    inv = Invocation(command.label)
    out = workdir / f"{command.label}.{command.suffix}"
    result = workdir / f"{command.label}.measure.json"
    for path in (out, result):
        path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH / "child.py"), str(result), "1" if trace else "0", "--",
        *command.args, "--seed", str(seed), "--out", str(out),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        inv.problems.append(f"timed out after {timeout:.0f} s")
        return inv
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        inv.problems.append(f"exit status {proc.returncode}: {' | '.join(tail)}")
        return inv
    record = json.loads(result.read_text(encoding="utf-8"))
    inv.record = record
    inv.wall_s = record["wall_s"]
    inv.cpu_s = record["cpu_s"]
    inv.setup_s = record["import_done"] - spawned
    inv.rss_mb = record["maxrss_kb"] / 1024.0
    inv.speed = REFERENCE_S / statistics.mean(record["probe_s"])
    if not Path(record["speckleq_file"]).resolve().is_relative_to(SRC.resolve()):
        inv.problems.append(f"imported speckleq from {record['speckleq_file']}, not {SRC}")
        return inv
    use_reference = seed == RECORDED_SEED or not command.seeded
    try:
        table = read_output(out, command.kind)
        inv.problems.extend(check_output(command.label, table, reference[command.label] if use_reference else None))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        inv.problems.append(f"malformed output: {exc!r}")
        return inv
    inv.rows = len(table.rows)
    inv.bytes = out.stat().st_size
    inv.trial_evals = trial_evals(command.label, table)
    return inv


def run_pass(labels, seed, workdir, trace, reference, hard_deadline) -> list:
    done = []
    for label in labels:
        timeout = min(CHILD_TIMEOUT_S, hard_deadline - time.monotonic())
        if timeout <= 1.0:
            done.append(Invocation(label, [f"not started: the {HARD_LIMIT_S:.0f} s run limit was reached"]))
            continue
        inv = invoke(COMMANDS[label], seed, workdir, trace, reference, timeout)
        for problem in inv.problems:
            print(f"FAILED {label}{' (traced)' if trace else ''}: {problem}", file=sys.stderr)
        done.append(inv)
    return done


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list, scaled: bool = True) -> dict:
    """Per command, the median over passes; then the sum over commands (maximum, for peak RSS).

    Times are scaled to the probe's reference speed unless ``scaled`` is false.
    """
    good = [p for p in passes if all(inv.ok for inv in p)] or passes
    labels = [inv.label for inv in good[0]]

    def median_of(label, attr, scale):
        return _median([getattr(i, attr) * (i.speed if scale else 1.0) for p in good for i in p if i.label == label])

    return {
        "wall_s": (sum(median_of(label, "wall_s", scaled) for label in labels), "s"),
        "cpu_s": (sum(median_of(label, "cpu_s", scaled) for label in labels), "s"),
        "setup_s": (sum(median_of(label, "setup_s", scaled) for label in labels), "s"),
        "peak_rss_mb": (max(median_of(label, "rss_mb", False) for label in labels), "MB"),
    }


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def traced_pass_metrics(traced_pass: list) -> dict:
    """Span counts, self and inclusive times and reuse ratios of one traced pass."""
    spans, layer_incl, distinct = {}, {}, {}
    for inv in traced_pass:
        record = inv.record.get("spans", {"edges": [], "distinct": {}})
        for parent, name, calls, incl, self_s in record["edges"]:
            stat = spans.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += self_s * inv.speed
            if _layer(parent) != _layer(name):
                layer_incl[_layer(name)] = layer_incl.get(_layer(name), 0.0) + incl * inv.speed
        for name, count in record["distinct"].items():
            distinct[name] = distinct.get(name, 0) + count

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    m = {}
    for name, (count, self_s) in spans.items():
        m[f"{name}.calls"] = count
        m[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for n, (_, s) in spans.items() if _layer(n) == layer)
        m[f"{layer}.incl_s"] = layer_incl.get(layer, 0.0)
    m["quantum_stats.calls"] = sum(c for n, (c, _) in spans.items() if _layer(n) == "quantum_stats")
    # cli.self_s is execute minus the layers it calls: formatting and writing.
    m["cli.self_s"] = m.get("cli.execute.self_s", 0.0)
    m["trace.remainder_s"] = m.get("cli.main.self_s", 0.0)
    m["trace.wall_s"] = sum(inv.wall_s * inv.speed for inv in traced_pass)
    m["trace.accounted"] = _ratio(sum(s for _, s in spans.values()), m["trace.wall_s"], 0.0)

    draws = calls("random_media.sample_realization")
    psfs = calls("prolate.reconstruction_psf")
    # With no calls there is nothing redundant: the reuse ratios read 1.
    m["random_media.draw_reuse"] = _ratio(distinct.get("random_media.sample_realization", 0), draws, 1.0)
    m["random_media.coupling_sums_per_draw"] = _ratio(calls("random_media.coupling_sums"), draws, 0.0)
    m["prolate.psf_reuse"] = _ratio(distinct.get("prolate.reconstruction_psf", 0), psfs, 1.0)
    m["ensemble.trial_evals"] = sum(inv.trial_evals for inv in traced_pass)
    m["cli.rows_written"] = sum(inv.rows for inv in traced_pass)
    m["cli.bytes_written"] = sum(inv.bytes for inv in traced_pass)
    return m


def _unit(name: str) -> str:
    if name.endswith(".calls") or name in ("ensemble.trial_evals", "cli.rows_written"):
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def per_layer(untraced: list, traced: list) -> dict:
    """Every per-layer metric of BENCHMARK.json; spans absent from the workload read 0.

    Times are scaled like the end-to-end ones and are medians over passes;
    counts and ratios repeat exactly from pass to pass and are taken from the
    last one.
    """
    passes = [traced_pass_metrics(p) for p in traced]
    untraced_wall = end_to_end(untraced)["wall_s"][0]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith("cmd."):
            label = name[len("cmd."):-len(".wall_s")]
            value = _median([i.wall_s * i.speed for p in untraced for i in p if i.label == label])
        elif name == "trace.overhead":
            value = _ratio(_median([m["trace.wall_s"] for m in passes]), untraced_wall, 0.0)
        elif unit == "s":
            value = _median([m.get(name, 0.0) for m in passes])
        else:
            value = passes[-1].get(name, 0)
        out[name] = (value, unit)
    return out


_SPAN_TIMES = [
    "random_media.sample_realization", "random_media.derive_trial_seed", "random_media.coupling_sums",
    "prolate.build_basis", "prolate.reconstruction_psf", "prolate.evaluate", "prolate.half_width",
    "prolate.superres_factor", "gaussian_oracle.output_gaussian_state",
    "gaussian_oracle.gaussian_photon_moments",
]
_PER_LAYER_NAMES = (
    [f"{span}.{kind}" for span in _SPAN_TIMES for kind in ("calls", "self_s")]
    + [f"{layer}.self_s" for layer in LAYERS if layer != "cli"]
    + [
        "random_media.draw_reuse", "random_media.coupling_sums_per_draw",
        "quantum_stats.calls", "quantum_stats.incl_s", "ensemble.incl_s", "ensemble.trial_evals",
        "prolate.psf_reuse", "cli.parse_args.self_s", "cli.self_s", "cli.rows_written",
        "cli.bytes_written",
    ]
    + [f"cmd.{label}.wall_s" for label in COMMANDS]
    + ["trace.overhead", "trace.wall_s", "trace.remainder_s", "trace.accounted"]
)
_HIGHER = {
    "random_media.draw_reuse", "prolate.psf_reuse", "ensemble.trial_evals", "cli.rows_written",
    "cli.bytes_written", "trace.accounted",
}
# (name, unit, better) exactly as listed in BENCHMARK.json
PER_LAYER = [(n, _unit(n), "higher" if n in _HIGHER else "lower") for n in _PER_LAYER_NAMES]
# (name, unit, bound) exactly as listed in BENCHMARK.json
END_TO_END = [("wall_s", "s", 0.25), ("cpu_s", "s", 0.25), ("setup_s", "s", 0.25), ("peak_rss_mb", "MB", 0.1)]


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "cache": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts["cache"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    git_dir = ROOT / ".git"
    commit = None
    if git_dir.exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "speckleq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["git_commit"] = commit
    facts["src_sha256"] = digest.hexdigest()
    facts["blas_env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    facts["seeds"] = {"recorded": RECORDED_SEED, "held_out": HELD_OUT_SEED}
    return facts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "speckleq" / "cli.py").is_file():
        print(f"error: no speckleq sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["commands"]
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    workdir = BENCH / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, traced, durations = [], [], []
    print(f"speckleq benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why: {workload.why}")
    try:
        while True:
            began = time.monotonic()
            untraced.append(run_pass(workload.commands, args.seed, workdir, False, reference, hard_deadline))
            if args.trace:
                traced.append(run_pass(workload.commands, args.seed, workdir, True, reference, hard_deadline))
            durations.append(time.monotonic() - began)
            # Start another pass only if at least half of it fits, so runs
            # last about --seconds on average.
            typical, now = statistics.median(durations), time.monotonic()
            if now + 0.5 * typical > deadline or now + typical > hard_deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    invocations = [i for p in untraced + traced for i in p]
    attempted, failed = len(invocations), sum(not i.ok for i in invocations)
    first = next((i.record for i in invocations if i.record), {})
    env = environment()
    env.update({k: first.get(k) for k in ("python", "numpy", "scipy", "blas_threads")})
    print("env: " + json.dumps(env, sort_keys=True))
    for n, p in enumerate(untraced, 1):
        cells = ", ".join(f"{i.label} {i.wall_s:.3f} s (speed {i.speed:.2f})" for i in p)
        print(f"pass {n}: {cells}; set-up {sum(i.setup_s for i in p):.3f} s")

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)
        raw = end_to_end(untraced, scaled=False)
        print("unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'error_rate':48s} {_ratio(failed, attempted, 0.0):14.6g} ratio  ({failed} failed of {attempted})")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {time.monotonic() - start:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
