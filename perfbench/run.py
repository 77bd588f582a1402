"""Benchmark of feta's command line: cold time to verdict, per workload.

    python3 perfbench/run.py --workload examples --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40
    python3 perfbench/run.py --record

Every command runs in a fresh interpreter against the package under `src/`
of the checkout this file sits in, one child at a time (a closed loop with
one client). Fresh processes matter: `valid_products`, `variables`,
`FeaturedSyncSpec.allowed_products` and the family's projection cache are
warm inside one process but cold for every CLI user.

A pass runs the workload's commands once over its inputs and sums each
command's time per end-to-end metric; a run repeats passes while the
next one is expected to end within `--seconds`, and reports the median
over passes. A command's time is the CPU time (user + system) of its
child as `os.wait4` reports it. On a shared host the wall time also
counts the time the virtual CPU is taken by other guests (steal) or waits
for a CPU, which changes from minute to minute and is no part of the
program; for these single-threaded commands on an idle machine the two
agree within a few percent. The CPU time still follows the host's speed,
which on a shared 2-vCPU virtual machine drifted by up to a fifth between
runs a minute apart (cache, memory and core sharing with other guests),
for every command alike. So after
every `REFERENCE_EVERY_S` of command time the benchmark also runs
`reference.py`, a fixed pure-Python search that imports nothing from feta,
in a fresh interpreter, and every reported time is scaled by
`REFERENCE_S / median(reference time)`: it reads as seconds on a machine
on which the reference takes `REFERENCE_S`. The per-call table also shows
the unscaled medians and the scale. `setup_s` is the fixed cost every
command pays (a fresh interpreter imports `feta.cli`, reads, parses and
elaborates the input, i.e. `feta products`), run once per input in every
pass like the other commands. Peak RSS comes from `os.wait4` per child.

Every command's exit code is compared with the one stated by hand below and
its stdout with the digest recorded in `digests.json`; every mismatch is
printed by name and counted as failed. Before timing, the family verdicts
of `check --strict` and `check --weak` are confirmed against the
per-product route (`check -p` for every valid product).

`--trace 1` alternates untraced passes with traced ones, in which every
child records spans around the layers' public functions (`tracer.py`), and
reports each per-layer metric as its median over the traced passes. On
acc_scale it also traces `feta` on acc6 once and checks its counts against
the figures in ROADMAP.md. `--workload all`
runs every workload in both modes and prints all tables. `--record`
re-records the stdout digests after confirming every exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 160.0
SETUP = ("products", "--format", "json")
REFERENCE = [sys.executable, "-I", str(HERE / "reference.py")]
REFERENCE_S = 0.15
REFERENCE_EVERY_S = 0.8

EXAMPLES = (
    "access_management.feta",
    "broadcast_logger.feta",
    "dual_sign.feta",
    "relay.feta",
    "sensor_fusion.feta",
    "turnstile.feta",
)
ACC_USERS = 4

# Expected exit codes, stated by hand: 0 holds or only reports, 1 violated.
COMMAND_EXIT = {
    "products": (0, "only lists the valid products"),
    "feta": (0, "only builds the featured team and reports it"),
    "verify": (0, "the family analyses agree with the per-product analyses"),
}
VERDICTS = {
    "access_management.feta": {
        "strict": (1, "under lock a second ready user waits until the server confirms the first"),
        "weak": (0, "the server confirms and returns to 0, after which every join is received"),
    },
    "broadcast_logger.feta": {
        "strict": (0, "readings admit zero receivers, so no requirement arises for them"),
        "weak": (0, "weak receptiveness is implied by strict receptiveness"),
    },
    "dual_sign.feta": {
        "strict": (0, "the joint send and the release are always received right away"),
        "weak": (0, "weak receptiveness is implied by strict receptiveness"),
    },
    "relay.feta": {
        "strict": (1, "without buffering the relay must forward before the next put"),
        "weak": (0, "the relay's forward is an internal step after which put is received"),
    },
    "sensor_fusion.feta": {
        "strict": (0, "the store answers or fetches in every product without delay"),
        "weak": (0, "weak receptiveness is implied by strict receptiveness"),
    },
    "turnstile.feta": {
        "strict": (0, "the turnstile accepts pay and push whenever the person offers them"),
        "weak": (0, "weak receptiveness is implied by strict receptiveness"),
    },
    f"acc{ACC_USERS}.feta": {
        "strict": (1, "as in the bundled example, lock joins wait for the server's confirm"),
        "weak": (0, "as in the bundled example, every join is served after the confirm"),
    },
    "product_family": {
        "strict": (1, "lock joins wait for the server's confirm"),
        "weak": (1, "flaky products drop the server's join? under unlock, so a ready joiner is never served"),
    },
}

# The acc6 figures recorded in ROADMAP.md, checked in the traced acc_scale run.
ACC6_COUNTS = {
    "system.states": 1458,
    "system.transitions": 82702,
    "team.core_states": 256,
    "team.core_transitions": 1714,
}

END_TO_END = (
    ("setup_s", "s"),
    ("feta_s", "s"),
    ("check_strict_s", "s"),
    ("check_weak_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("dsl.elaborate_s", "s"),
    ("system.state_space_s", "s"),
    ("system.states", "count"),
    ("system.transitions", "count"),
    ("synctypes.allowed_products_calls", "count"),
    ("synctypes.allowed_products_s", "s"),
    ("synctypes.validate_total_s", "s"),
    ("team.build_s", "s"),
    ("team.prune_s", "s"),
    ("team.live_ratio", "ratio"),
    ("team.reachable_state_ratio", "ratio"),
    ("team.commutes_s", "s"),
    ("team.build_team_calls", "count"),
    ("team.build_team_s", "s"),
    ("automata.project_calls", "count"),
    ("automata.project_s", "s"),
    ("automata.reachable_calls", "count"),
    ("automata.reachable_s", "s"),
    ("features.evaluate_calls", "count"),
    ("features.evaluate_s", "s"),
    ("features.sat_calls", "count"),
    ("features.sat_s", "s"),
    ("features.entails_calls", "count"),
    ("features.entails_s", "s"),
    ("features.valid_products_s", "s"),
    ("features.product_set_expr_s", "s"),
    ("family.derive_s", "s"),
    ("family.requirements", "count"),
    ("family.group_hit_ratio", "ratio"),
    ("family.reachable_products_calls", "count"),
    ("family.reachable_products_s", "s"),
    ("family.compliance_calls", "count"),
    ("family.compliance_s", "s"),
    ("family.weak_calls", "count"),
    ("family.weak_s", "s"),
    ("family.weak_fallback_ratio", "ratio"),
    ("family.crosscheck_s", "s"),
    ("receptiveness.check_s", "s"),
    ("receptiveness.weak_compliance_calls", "count"),
    ("reporting.render_s", "s"),
    ("reporting.output_bytes", "B"),
    ("trace.overhead_frac", "ratio"),
)

# (metric, CLI arguments before the input file)
EXAMPLE_COMMANDS = (
    ("feta_s", ("feta",)),
    ("feta_s", ("feta", "--format", "dot")),
    ("check_strict_s", ("check", "--strict")),
    ("check_weak_s", ("check", "--weak", "--format", "json")),
    ("verify_s", ("verify",)),
)
SCALE_COMMANDS = (
    ("feta_s", ("feta",)),
    ("check_strict_s", ("check", "--strict")),
    ("check_weak_s", ("check", "--weak")),
    ("verify_s", ("verify",)),
)


@dataclass(frozen=True)
class Input:
    name: str
    family: str  # key into VERDICTS
    text: str


# Why each workload was chosen is recorded in BENCHMARK.json. In short:
# examples is start-up, import, elaboration and rendering; acc_scale is
# composition, guards and per-state BFS over 2 products; product_scale is
# guards, per-product projections, culprit search and the verify oracle
# over 12 products.
WORKLOADS = {
    "examples": EXAMPLE_COMMANDS,
    "acc_scale": SCALE_COMMANDS,
    "product_scale": SCALE_COMMANDS,
}


def workload_inputs(name: str, seed: int) -> list[Input]:
    if name == "examples":
        folder = ROOT / inputs.EXAMPLES
        return [Input(n, n, (folder / n).read_text(encoding="utf-8")) for n in EXAMPLES]
    if name == "acc_scale":
        label = f"acc{ACC_USERS}.feta"
        return [Input(label, label, inputs.acc(ROOT, ACC_USERS))]
    variant = inputs.product_variant(seed)
    return [Input(f"product_family_v{variant:02d}.feta", "product_family", inputs.product_family(variant))]


def all_inputs(name: str) -> list[Input]:
    if name != "product_scale":
        return workload_inputs(name, 0)
    return [
        Input(f"product_family_v{v:02d}.feta", "product_family", inputs.product_family(v))
        for v in range(len(inputs.VARIANTS))
    ]


def expected_exit(inp: Input, argv: tuple) -> int:
    if argv[0] == "check":
        return VERDICTS[inp.family]["weak" if "--weak" in argv else "strict"][0]
    return COMMAND_EXIT[argv[0]][0]


@dataclass
class Call:
    cpu: float
    code: int | None
    stdout: bytes
    rss_mb: float


@dataclass
class Bench:
    work: Path
    digests: dict
    deadline: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    calls: dict = field(default_factory=lambda: defaultdict(list))
    reference: list = field(default_factory=list)
    since_reference: float = REFERENCE_EVERY_S  # the first command is followed by one

    def child(self, mode: tuple, argvs: list[tuple]) -> Call:
        """Run perfbench/child.py and wait for it."""
        cmd = [sys.executable, "-I", str(HERE / "child.py"), str(ROOT / "src"), *mode]
        for argv in argvs:
            cmd += ["--", *argv]
        return self.spawn(cmd)

    def spawn(self, cmd: list[str]) -> Call:
        """Run cmd and wait for it; its time is the child's user + system CPU time."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, cwd=self.work, stdout=out, stderr=err, stdin=subprocess.DEVNULL
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            code = None
        return Call(usage.ru_utime + usage.ru_stime, code, out_path.read_bytes(), usage.ru_maxrss / 1024)

    def run(self, inp: Input, path: Path, argv: tuple, trace_out: Path | None = None) -> Call:
        """One checked CLI command on one input."""
        mode = ("run",) if trace_out is None else ("trace", str(trace_out))
        call = self.child(mode, [(*argv, path.name)])
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, call.rss_mb)
        key = " ".join(argv)
        expected = expected_exit(inp, argv)
        recorded = self.digests.get(inp.name, {}).get(key)
        problem = None
        if call.code is None:
            problem = "killed (time limit or signal)"
        elif call.code != expected:
            problem = f"exit {call.code}, expected {expected}"
        elif recorded is None:
            problem = "no recorded stdout digest"
        elif hashlib.sha256(call.stdout).hexdigest() != recorded:
            problem = "stdout differs from the recorded output"
        if problem:
            self.fail(f"{inp.name} / feta {key}: {problem}")
        self.calls[key].append(call.cpu)
        return call

    def timed(self, inp: Input, path: Path, argv: tuple) -> float:
        """Run one checked command and, once enough command time has passed, the reference."""
        cpu = self.run(inp, path, argv).cpu
        self.since_reference += cpu
        if self.since_reference >= REFERENCE_EVERY_S:
            self.since_reference = 0.0
            call = self.spawn(REFERENCE)
            if call.code != 0:
                self.fail(f"reference.py: exit {call.code}")
            self.reference.append(call.cpu)
        return cpu

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", flush=True)

    def confirm_oracle(self, inp: Input, path: Path, products: list[list[str]]) -> None:
        """The family verdicts must equal the conjunction of per-product verdicts."""
        argvs = [
            ("check", "-p", ",".join(p), f"--{mode}", path.name)
            for mode in ("strict", "weak")
            for p in products
        ]
        call = self.child(("batch",), argvs)
        try:
            codes = json.loads(call.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.fail(f"{inp.name}: per-product oracle produced no verdicts")
            return
        for i, mode in enumerate(("strict", "weak")):
            part = codes[i * len(products):(i + 1) * len(products)]
            if any(c not in (0, 1) for c in part):
                self.fail(f"{inp.name}: per-product check --{mode} exited with {part}")
                continue
            oracle = 0 if all(c == 0 for c in part) else 1
            if oracle != VERDICTS[inp.family][mode][0]:
                self.fail(
                    f"{inp.name}: per-product route says exit {oracle} for check --{mode},"
                    f" the stated verdict is {VERDICTS[inp.family][mode][0]}"
                )

    def prepare(self, items: list[Input]) -> list[Path]:
        """Write the inputs, warm the bytecode cache and confirm the verdicts."""
        paths = []
        for inp in items:
            path = self.work / inp.name
            path.write_text(inp.text, encoding="utf-8")
            paths.append(path)
            call = self.run(inp, path, SETUP)
            try:
                products = json.loads(call.stdout)["products"]
            except (ValueError, KeyError):
                continue  # already counted as failed by run()
            self.confirm_oracle(inp, path, products)
        return paths


def self_times(trace: dict) -> tuple[dict, dict]:
    """Calls and self time per span name: duration minus the children's."""
    names, spans = trace["names"], trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict = defaultdict(int)
    own: dict = defaultdict(float)
    for i, (n, start, end, _) in enumerate(spans):
        calls[names[n]] += 1
        own[names[n]] += end - start - covered[i]
    return calls, own


def layer_metrics(calls: dict, own: dict, counts: dict, output_bytes: int) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    c = counts.get
    return {
        "cli.import_s": own["cli.import"],
        "dsl.elaborate_s": own["dsl.elaborate_text"],
        "system.state_space_s": own["system.state_space"],
        "system.states": c("system.states", 0),
        "system.transitions": c("system.transitions", 0),
        "synctypes.allowed_products_calls": calls["synctypes.allowed_products"],
        "synctypes.allowed_products_s": own["synctypes.allowed_products"],
        "synctypes.validate_total_s": own["synctypes.validate_total"],
        "team.build_s": own["team.build_featured_team"],
        "team.prune_s": own["team.prune_for_display"],
        "team.live_ratio": ratio(c("team.live_transitions", 0), c("team.full_transitions", 0)),
        "team.reachable_state_ratio": ratio(c("team.core_states", 0), c("team.full_states", 0)),
        "team.commutes_s": own["team.check_projection_commutes"],
        "team.build_team_calls": calls["team.build_team"],
        "team.build_team_s": own["team.build_team"],
        "automata.project_calls": calls["automata.project"],
        "automata.project_s": own["automata.project"],
        "automata.reachable_calls": calls["automata.reachable"],
        "automata.reachable_s": own["automata.reachable"],
        "features.evaluate_calls": calls["features.evaluate"],
        "features.evaluate_s": own["features.evaluate"],
        "features.sat_calls": calls["features.is_satisfiable"],
        "features.sat_s": own["features.is_satisfiable"],
        "features.entails_calls": calls["features.entails"],
        "features.entails_s": own["features.entails"],
        "features.valid_products_s": own["features.valid_products"],
        "features.product_set_expr_s": own["features.product_set_expr"],
        "family.derive_s": own["family.derive_family_requirements"],
        "family.requirements": c("family.requirements", 0),
        "family.group_hit_ratio": ratio(c("family.requirements", 0), c("family.candidate_groups", 0)),
        "family.reachable_products_calls": calls["family.reachable_products"],
        "family.reachable_products_s": own["family.reachable_products"],
        "family.compliance_calls": calls["family.check_family_compliance"],
        "family.compliance_s": own["family.check_family_compliance"],
        "family.weak_calls": calls["family.check_family_weak_compliance"],
        "family.weak_s": own["family.check_family_weak_compliance"],
        "family.weak_fallback_ratio": ratio(
            calls["family.check_family_weak_compliance"], c("family.checked_requirements", 0)
        ),
        "family.crosscheck_s": sum(v for k, v in own.items() if k.startswith("family.crosscheck_")),
        "receptiveness.check_s": own["receptiveness.check_receptiveness"],
        "receptiveness.weak_compliance_calls": calls["receptiveness.check_weak_compliance"],
        "reporting.render_s": sum(v for k, v in own.items() if k.startswith("reporting.")),
        "reporting.output_bytes": output_bytes,
    }


def timed_pass(bench: Bench, commands: tuple, items, paths) -> dict:
    sums = {"setup_s": 0.0, **{name: 0.0 for name, _ in commands}}
    for inp, path in zip(items, paths):
        for metric, argv in (("setup_s", SETUP), *commands):
            sums[metric] += bench.timed(inp, path, argv)
    return sums


def traced_pass(bench: Bench, commands: tuple, items, paths) -> tuple[float, dict]:
    calls: dict = defaultdict(int)
    own: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    cpu = 0.0
    output_bytes = 0
    trace_path = bench.work / "trace.json"
    for inp, path in zip(items, paths):
        for _, argv in commands:
            call = bench.run(inp, path, argv, trace_path)
            cpu += call.cpu
            output_bytes += len(call.stdout)
            try:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                bench.fail(f"{inp.name} / feta {' '.join(argv)}: no trace written")
                continue
            finally:
                trace_path.unlink(missing_ok=True)
            c, o = self_times(trace)
            for k, v in c.items():
                calls[k] += v
            for k, v in o.items():
                own[k] += v
            for k, v in trace["counts"].items():
                counts[k] += v
    return cpu, layer_metrics(calls, own, counts, output_bytes)


def check_acc6_counts(bench: Bench) -> None:
    """Trace `feta` on acc6 once and compare its counts with ROADMAP.md."""
    inp = Input("acc6.feta", "acc6.feta", inputs.acc(ROOT, 6))
    path = bench.work / inp.name
    path.write_text(inp.text, encoding="utf-8")
    trace_path = bench.work / "trace-acc6.json"
    call = bench.child(("trace", str(trace_path)), [("feta", path.name)])
    bench.attempted += 1
    try:
        counts = json.loads(trace_path.read_text(encoding="utf-8"))["counts"]
    except (OSError, ValueError):
        counts = None
    if call.code != 0 or counts is None:
        bench.fail(f"acc6.feta / feta: exit {call.code}, trace {'missing' if counts is None else 'written'}")
        return
    for key, want in ACC6_COUNTS.items():
        if counts.get(key) != want:
            bench.fail(f"acc6.feta / feta: traced {key} is {counts.get(key)}, ROADMAP says {want}")


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, by rank."""
    n = len(values)
    if n < 11:
        return "-"
    return f"p{100 * (n - 11) // (n - 1)}={sorted(values)[n - 11]:.4f}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Bench, dict]:
    run_start = time.monotonic()
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    bench = Bench(work, digests, run_start + RUN_DEADLINE_S)
    commands = WORKLOADS[workload]
    items = workload_inputs(workload, seed)
    print(f"# workload {workload}: {', '.join(i.name for i in items)} (seed {seed})", flush=True)
    paths = bench.prepare(items)
    if trace and workload == "acc_scale":
        check_acc6_counts(bench)
    plain: list[dict] = []
    traced: list[tuple[float, dict]] = []
    start = time.monotonic()
    while time.monotonic() < bench.deadline:
        plain.append(timed_pass(bench, commands, items, paths))
        if trace:
            traced.append(traced_pass(bench, commands, items, paths))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    print(f"# {len(plain)} passes in {time.monotonic() - start:.1f} s", flush=True)
    if trace:
        base = statistics.median(sum(p.values()) - p["setup_s"] for p in plain)
        metrics = {
            name: statistics.median(t[1][name] for t in traced)
            for name, _ in PER_LAYER
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = statistics.median(t[0] for t in traced) / base - 1
        print(f"{'layer metric':38} {'unit':5} {'value':>12}  (median of {len(traced)} traced passes)")
        for name, unit in PER_LAYER:
            print(f"{name:38} {unit:5} {metrics[name]:12.4f}")
        units = dict(PER_LAYER)
    else:
        reference = statistics.median(bench.reference)
        scale = REFERENCE_S / reference
        samples = {name: [scale * p[name] for p in plain] for name in plain[0]}
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["peak_rss_mb"] = bench.peak_rss_mb
        print(f"{'metric':16} {'unit':5} {'n':>4} {'median':>10}  highest percentile with 10 samples above")
        for name, unit in END_TO_END:
            values = samples.get(name, [])
            print(f"{name:16} {unit:5} {len(values) or bench.attempted:4d} {metrics[name]:10.4f}  {high_percentile(values)}")
        print(f"{'per call, unscaled: feta ...':34} {'n':>4} {'median_s':>9}  highest percentile")
        for key, values in bench.calls.items():
            print(f"{key:34} {len(values):4d} {statistics.median(values):9.4f}  {high_percentile(values)}")
        print(f"{'reference.py':34} {len(bench.reference):4d} {reference:9.4f}  scale {scale:.4f}")
        units = dict(END_TO_END)
    failed_frac = len(bench.failures) / bench.attempted
    print(f"failed_frac: {len(bench.failures)} of {bench.attempted} command runs = {failed_frac:.4f}")
    return bench, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def record(work: Path) -> int:
    """Confirm every exit code and the per-product oracle, then store stdout digests."""
    bench = Bench(work, {}, time.monotonic() + 10**6)
    digests: dict = {}
    for name, commands in WORKLOADS.items():
        for inp in all_inputs(name):
            path = work / inp.name
            path.write_text(inp.text, encoding="utf-8")
            entry = digests.setdefault(inp.name, {})
            for argv in (SETUP, *(a for _, a in commands)):
                call = bench.child(("run",), [(*argv, path.name)])
                if call.code != expected_exit(inp, argv):
                    bench.fail(f"{inp.name} / feta {' '.join(argv)}: exit {call.code}")
                entry[" ".join(argv)] = hashlib.sha256(call.stdout).hexdigest()
                if argv == SETUP and call.code == 0:
                    bench.confirm_oracle(inp, path, json.loads(call.stdout)["products"])
            print(f"recorded {inp.name}", flush=True)
    if bench.failures:
        print(f"{len(bench.failures)} failures; digests not written")
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the stdout digests")
    args = parser.parse_args()
    if not (ROOT / "src" / "feta" / "cli.py").is_file():
        print(f"error: no feta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            return record(work)
        if args.workload == "all":
            plan = [(w, t) for w in WORKLOADS for t in (False, True)]
        else:
            plan = [(args.workload, bool(args.trace))]
        attempted, failed, metrics = 0, 0, {}
        for name, trace in plan:
            bench, wl_metrics = run_workload(name, args.seed, args.seconds, trace, work)
            attempted += bench.attempted
            failed += len(bench.failures)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
