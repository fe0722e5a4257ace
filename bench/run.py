"""The xdoc benchmark: generated workloads through ``xdoc analyze``, in-process.

Usage, from the repository root:

    python3 bench/run.py --workload en-abstracts --seed 1 --seconds 30 --trace 0

Every document is one call of ``xdoc.cli.main(["analyze", ...])`` in this
process, one call after another (a closed loop with one client, no
threads).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from pathlib import Path

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLES = SRC / "xdoc" / "bundles"
# Set-up is timed in a batch of at least this many seconds before every
# timed pass, so its samples span the whole run like the calls do.
SETUP_BATCH_S = 0.15
GROWTH_SCALES = (0.125, 0.5)  # en-report at 250 and 1000 sentences: 1x and 4x
GROWTH_REPEATS = 3


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_xdoc():
    """Import xdoc from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import xdoc.cli
        import xdoc.resources
    except ImportError as exc:
        raise SetupError(f"cannot import xdoc from {SRC}: {exc}") from None
    if Path(xdoc.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"xdoc imported from {xdoc.__file__}, not from {SRC}")
    return xdoc


class Run:
    """One workload's files in a private work directory, plus its reference outputs."""

    def __init__(self, workload: corpus.Workload, work: Path):
        self.w = workload
        self.work = work
        self.bundle = work / "bundle.xml"
        self.bundle.write_text(workload.bundle_xml, encoding="utf-8")
        self.calls = []
        for doc in workload.docs:
            src = work / f"{doc.name}.in"
            src.write_text(doc.content, encoding="utf-8")
            argv = ["analyze", "--bundle", str(self.bundle),
                    "--output", str(work / f"{doc.name}.xml"),
                    "--relations-tsv", str(work / f"{doc.name}.rel.tsv")]
            argv += (["--external-tags", str(src)] if workload.external_tags
                     else ["--input", str(src)])
            if workload.lenient:
                argv.append("--lenient")
            self.calls.append(argv)
        self.reference: list[tuple[bytes, bytes]] = []  # (xml, tsv) per document
        self.codes: list[int] = []  # reference pass exit codes

    def outputs(self, i: int) -> tuple[bytes, bytes]:
        doc = self.w.docs[i]
        try:
            return ((self.work / f"{doc.name}.xml").read_bytes(),
                    (self.work / f"{doc.name}.rel.tsv").read_bytes())
        except OSError:
            return (b"", b"")


def setup_once(xdoc, path: Path) -> float:
    """Load and validate; abort the run on any error finding.  Returns seconds."""
    start = time.perf_counter()
    bundle = xdoc.resources.load_bundle(path)
    findings = xdoc.resources.validate_bundle(bundle)
    elapsed = time.perf_counter() - start
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise SetupError(f"generated bundle fails validation: {errors[:3]}")
    return elapsed


def setup_batch(xdoc, path: Path) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SETUP_BATCH_S:
        times.append(setup_once(xdoc, path))
    return times


def reference_pass(run: Run) -> float:
    """Run every document once in a fresh process; returns its peak RSS in MB."""
    calls_path, codes_path = run.work / "calls.json", run.work / "codes.json"
    calls_path.write_text(json.dumps(run.calls), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_pass.py"), str(SRC), str(calls_path), str(codes_path)],
        timeout=150,
    )
    if proc.returncode != 0 or not codes_path.exists():
        raise SetupError(f"reference pass exited with {proc.returncode}")
    run.codes = json.loads(codes_path.read_text(encoding="utf-8"))
    run.reference = [run.outputs(i) for i in range(len(run.calls))]
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def check_reference(run: Run) -> tuple[bool, int, Counter, Counter]:
    """Oracle check of the reference outputs.

    Returns (outputs well-formed, failed sentences, failed by kind, all by kind).
    A sentence fails when its document's call failed or when its relation
    rows differ from the generator's expected rows.
    """
    well_formed = True
    failed = 0
    failed_kinds: Counter = Counter()
    all_kinds: Counter = Counter()
    for i, doc in enumerate(run.w.docs):
        all_kinds.update(doc.kinds)
        xml, tsv = run.reference[i]
        ok = run.codes[i] == 0
        try:
            sentences = len(ET.fromstring(xml).findall("sentence")) if ok else -1
        except ET.ParseError:
            well_formed, sentences = False, -1
        ok = ok and sentences == len(doc.expected)
        got: defaultdict[int, Counter] = defaultdict(Counter)
        for line in tsv.decode("utf-8", "replace").splitlines()[1:]:
            fields = line.split("\t")
            if len(fields) != 6 or not fields[5].startswith("s"):
                well_formed = False
                continue
            got[int(fields[5][1:]) - 1][run.w.row_key(tuple(fields[:5]))] += 1
        for s, (rows, kind) in enumerate(zip(doc.expected, doc.kinds)):
            if not ok or Counter(run.w.row_key(r) for r in rows) != got.get(s, Counter()):
                failed += 1
                failed_kinds[kind] += 1
    return well_formed, failed, failed_kinds, all_kinds


class Loop:
    """Timed calls through ``xdoc.cli.main``, each output checked against the reference."""

    def __init__(self, xdoc, run: Run):
        self.cli = xdoc.cli
        self.run = run
        self.call_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.identical = True

    def call(self, i: int, tracer: spans.Tracer | None = None) -> float:
        if tracer is not None:
            tracer.doc += 1
        argv = self.run.calls[i]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call, so a tracer can wrap it
        except (Exception, SystemExit) as exc:  # counted as a failed call, run continues
            print(f"call failed: {argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.failed += code != 0
        self.identical &= self.run.outputs(i) == self.run.reference[i]
        return elapsed

    def one_pass(self, tracer: spans.Tracer | None = None) -> float:
        total = 0.0
        for i in range(len(self.run.calls)):
            elapsed = self.call(i, tracer)
            self.call_s.append(elapsed)
            total += elapsed
        return total


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def end_to_end(xdoc, run: Run, seconds: float) -> tuple[dict, Loop, dict]:
    w = run.w
    loop = Loop(xdoc, run)
    loop.call(0)  # warm-up, untimed
    setup: list[float] = []
    pass_s: list[float] = []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        setup += setup_batch(xdoc, run.bundle)
        pass_s.append(loop.one_pass())
    ms = sorted(1000 * t for t in loop.call_s)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    metrics = {
        "sentences_per_s": w.sentences * len(pass_s) / sum(pass_s),
        "doc_ms_p50": statistics.median(ms),
        "doc_ms_p90": p90,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "sentences_per_s": f"{len(pass_s)} passes of {w.sentences} sentences, pass seconds {quartiles(pass_s)}",
        "doc_ms_p50": f"{len(ms)} calls",
        "doc_ms_p90": f"{len(ms)} calls, {sum(t > p90 for t in ms)} beyond",
        "setup_s": f"load_bundle + validate_bundle, one batch before each pass, {quartiles(setup)}",
    }
    return metrics, loop, notes


def growth_probe(xdoc, seed: int, work: Path) -> dict[str, float]:
    """Time per token per layer on en-report's generator, at 4x size over 1x.

    The two sizes alternate, so a change in machine speed during the
    probe hits both alike instead of showing up as growth.
    """
    calls = {}
    for scale in GROWTH_SCALES:
        sub = work / f"growth{scale}"
        sub.mkdir()
        calls[scale] = Run(build("en-report", seed, scale), sub).calls[0]
    per_token: dict[float, list[dict[str, float]]] = {scale: [] for scale in GROWTH_SCALES}
    for _ in range(GROWTH_REPEATS):
        for scale in GROWTH_SCALES:
            tracer = spans.Tracer()
            tracer.install()
            try:
                code = xdoc.cli.main(calls[scale])
            finally:
                tracer.uninstall()
            if code != 0:
                raise SetupError(f"growth probe call exited with {code}")
            per_token[scale].append(spans.per_token_times(tracer))
    small, large = (
        {layer: statistics.median(r[layer] for r in per_token[scale]) for layer in spans.GROWTH_LAYERS}
        for scale in GROWTH_SCALES
    )
    return {f"{layer}.growth": large[layer] / small[layer] if small[layer] else 0.0
            for layer in spans.GROWTH_LAYERS}


def traced(xdoc, run: Run, seconds: float, seed: int) -> tuple[dict, Loop, dict]:
    """Untraced and traced passes in alternation, then the growth probe."""
    loop = Loop(xdoc, run)
    loop.call(0)  # warm-up, untimed
    tracer = spans.Tracer()
    untraced_s, traced_s = [], []
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        untraced_s.append(loop.one_pass())
        tracer.install()
        try:
            traced_s.append(loop.one_pass(tracer))
        finally:
            tracer.uninstall()
    passes = len(traced_s)
    metrics = spans.per_layer_metrics(tracer, passes)
    self_s, _ = tracer.layer_times()
    untraced_mean = sum(untraced_s) / len(untraced_s)
    traced_mean = sum(traced_s) / passes
    overhead = traced_mean - untraced_mean
    covered = (sum(self_s.values()) + sum(tracer.bookkeeping.values())) / passes
    metrics["trace.overhead_share"] = overhead / untraced_mean
    metrics["trace.accounted_share"] = (covered - overhead) / untraced_mean
    metrics["trace.missing_layers"] = float(len(tracer.missing))
    metrics.update(growth_probe(xdoc, seed, run.work))
    notes = {
        "passes": f"{len(untraced_s)} untraced, {passes} traced",
        "untraced_pass_s": quartiles(untraced_s),
        "traced_pass_s": quartiles(traced_s),
        "self_sum_s": f"{sum(self_s.values()) / passes:.4f} per pass",
        "bookkeeping_s": f"{sum(tracer.bookkeeping.values()) / passes:.4f} per pass (counting, outside layers)",
        "wait": "not applicable: one thread, no queue, no layer waits on another",
        "parse curve": parse_curve(tracer.curve),
    }
    for layer, why in tracer.missing.items():
        notes[f"missing {layer}"] = why
    for layer in sorted(tracer.unreadable):
        notes[f"unreadable {layer}"] = "returned object not understood; its counts are incomplete"
    return metrics, loop, notes


def parse_curve(points: list[tuple[int, int]]) -> str:
    """Mean chart nodes per parser input length, at up to 12 lengths."""
    by_length: defaultdict[int, list[int]] = defaultdict(list)
    for length, nodes in points:
        by_length[length].append(nodes)
    lengths = sorted(by_length)
    shown = lengths[:: max(1, len(lengths) // 12)]
    return "tokens:nodes " + " ".join(f"{n}:{statistics.mean(by_length[n]):.0f}" for n in shown)


def build(name: str, seed: int, scale: float = 1.0) -> corpus.Workload:
    return corpus.build(
        name, seed,
        (BUNDLES / "en-bio.xml").read_text(encoding="utf-8"),
        (BUNDLES / "de-core.xml").read_text(encoding="utf-8"),
        scale,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    xdoc = load_xdoc()
    workload = build(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, work)
        setup_once(xdoc, run.bundle)
        peak_rss_mb = reference_pass(run)
        well_formed, failed_sentences, failed_kinds, all_kinds = check_reference(run)
        if args.trace:
            metrics, loop, notes = traced(xdoc, run, args.seconds, args.seed)
        else:
            metrics, loop, notes = end_to_end(xdoc, run, args.seconds)
            metrics["peak_rss_mb"] = peak_rss_mb
            metrics["failed_share"] = failed_sentences / workload.sentences
            notes["peak_rss_mb"] = "fresh process, one pass over every document"
            notes["failed_share"] = f"{failed_sentences} of {workload.sentences} sentences"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    xml_digest = hashlib.sha256(b"".join(x for x, _ in run.reference)).hexdigest()
    tsv_digest = hashlib.sha256(b"".join(t for _, t in run.reference)).hexdigest()
    correct = well_formed and loop.identical and all(c == 0 for c in run.codes)
    print(f"workload {args.workload} seed {args.seed}: {len(workload.docs)} documents, "
          f"{workload.sentences} sentences, {sum(d.tokens for d in workload.docs)} tokens")
    print(f"xml sha256 {xml_digest}")
    print(f"tsv sha256 {tsv_digest}")
    print("failed sentences by kind: " + ", ".join(
        f"{k} {failed_kinds[k]}/{n}" for k, n in sorted(all_kinds.items())))
    print(f"outputs well-formed {well_formed}, reruns byte-identical {loop.identical}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '?')}" + (f"  ({notes[name]})" if name in notes else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name}: {note}")

    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise SetupError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
