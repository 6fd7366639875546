"""The four benchmark workloads.

Each workload is built from a seed (its set-up), then hands out rounds of ops.
An op is a pair `(run, check)`: the runner times `run()` alone, and calls
`check(output)` afterwards, untimed; `check` returns None or a message saying
why the output is wrong.  A round is a fixed mix of ops, so runs that measure
whole rounds measure the same mix whatever the seed.

Why these workloads:

* certify-corpus -- the paper's main use: a full `report` on a fan with a
  group, over the equivariant blow-up corpus (all 13 group classes, up to 16
  rays), each pair rewritten in a random lattice basis as real inputs such as
  Galois images arrive.  Dominated by grothendieck, derived and cohomology.
* cohomology-sweep -- line-bundle cohomology alone, over three bands of
  polytope size, so a change that helps small divisors and hurts large ones
  shows.  The only workload whose memory grows with polytope area.
* group-classify -- symmetry and lattice_fan alone; never touches K0 or h0, so
  it is the control on which changes there must show no change.
* cli-commands -- what a shell user pays: one fresh interpreter per command,
  on the fixed input set, where interpreter start and import dominate.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from toric_surface_lab import cli, cohomology, corpus, lattice_fan, symmetry
from toric_surface_lab.intlinalg import mat_apply, mat_inv, mat_mul

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def child_env() -> dict:
    """The environment for child interpreters: this checkout's src first."""
    extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + extra))


def random_unimodular(rng: random.Random, bound: int):
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return ((a, b), (c, d))


def fan_file(path: Path, rays) -> str:
    path.write_text(json.dumps({"rays": [list(v) for v in rays]}))
    return str(path)


def group_file(path: Path, generators) -> str:
    path.write_text(json.dumps({"generators": [[list(r) for r in g] for g in generators]}))
    return str(path)


def wall_coefficients(rays) -> list[int]:
    """a_i with v_{i-1} + v_{i+1} = -a_i v_i, computed here, not by the library."""
    n = len(rays)
    out = []
    for i, v in enumerate(rays):
        w = (rays[i - 1][0] + rays[(i + 1) % n][0], rays[i - 1][1] + rays[(i + 1) % n][1])
        k = w[0] // v[0] if v[0] else w[1] // v[1]
        if (k * v[0], k * v[1]) != w:
            raise ValueError(f"wall relation fails at ray {v}")
        out.append(-k)
    return out


def chi_closed_form(a: list[int], c) -> int:
    """chi(D) = 1 + (sum a_i c_i^2 + 2 sum c_i c_{i+1} + sum (a_i + 2) c_i) / 2."""
    n = len(a)
    twice = (sum(a[i] * c[i] * c[i] for i in range(n))
             + 2 * sum(c[i] * c[(i + 1) % n] for i in range(n))
             + sum((a[i] + 2) * c[i] for i in range(n)))
    return 1 + twice // 2


def lattice_count(rays, c) -> int:
    """Lattice points of {m : <m, v_i> >= -c_i}, by a pure-Python box scan.

    The box comes from writing -u = l v_i + k v_{i+1} (l, k >= 0) for each
    unit vector u, which bounds <m, u> <= l c_i + k c_{i+1}.
    """
    n = len(rays)
    bounds = []
    for u in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for i in range(n):
            v, w = rays[i], rays[(i + 1) % n]
            lam = -u[0] * w[1] + u[1] * w[0]
            kap = -v[0] * u[1] + v[1] * u[0]
            if lam >= 0 and kap >= 0:
                bounds.append(lam * c[i] + kap * c[(i + 1) % n])
                break
    x1, x0, y1, y0 = bounds[0], -bounds[1], bounds[2], -bounds[3]
    return sum(
        1
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if all(x * v[0] + y * v[1] >= -ci for v, ci in zip(rays, c))
    )


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.corpus_ms = 0.0
        self.ext_pairs = 0  # summed pairs_checked of verified collections
        self.traced = False  # set by the runner for the traced phase
        self.child_cache: dict[str, list[int]] = {}  # name -> [hits, misses]

    def _corpus(self):
        """The standard corpus (its default seed), with 16 rays at most.

        The run seed draws bases, divisors and order, not the corpus: a
        seeded corpus changes the share of heavy fans and so moves p90 by up
        to half between seeds.
        """
        start = perf_counter()
        entries = corpus.standard_corpus(max_rays=16)
        self.corpus_ms = (perf_counter() - start) * 1e3
        return entries

    def warm_up(self) -> None:
        for run, check in self.warm_up_ops():
            error = check(run())
            if error:
                raise RuntimeError(f"{self.name} warm-up op failed: {error}")

    def warm_up_ops(self) -> list:
        """A few cheap ops that load lazy tables before timing starts."""
        raise NotImplementedError

    def round(self) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def take_child_spans(self) -> list:
        """Spans recorded by child processes since the last call."""
        return []

    def final_checks(self) -> list[str]:
        """Checks made once after the timed phase; each message is one failure."""
        return []

    def known_defects(self) -> list[str]:
        """Known failures kept out of the timed ops, probed once per run."""
        return []


class CertifyCorpus(Workload):
    """One op: in-process `report --json` on a corpus pair in a fresh basis."""

    name = "certify-corpus"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.entries = self._corpus()
        self.seen: set = set()
        self.count = 0

    def _fresh_pair(self, entry):
        # Basis entries stay within 3 unless a pair runs out of unseen bases.
        for attempt in range(1000):
            m = random_unimodular(self.rng, 3 + attempt // 100)
            fan = lattice_fan.apply_matrix(m, entry.fan)
            minv = mat_inv(m)
            elems = frozenset(mat_mul(m, mat_mul(g, minv)) for g in entry.group.elements)
            key = (fan.rays, elems)
            if key not in self.seen:
                self.seen.add(key)
                gens = [mat_mul(m, mat_mul(g, minv)) for g in entry.group.generators]
                return fan, gens
        raise RuntimeError("no unseen lattice basis left for a corpus pair")

    def _op(self, entry):
        fan, gens = self._fresh_pair(entry)
        self.count += 1
        stem = self.workdir / f"pair{self.count}"
        argv = ["report", "--fan", fan_file(stem.with_suffix(".fan.json"), fan.rays),
                "--group", group_file(stem.with_suffix(".group.json"), gens),
                "--json", "--seed", str(self.rng.randrange(1 << 30))]

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out):
            code, text = out
            if code != 0:
                return f"exit {code}"
            result = json.loads(text)["result"]
            if result["minimal_model"]["group_label"] != entry.group_label:
                return (f"minimal-model group {result['minimal_model']['group_label']}"
                        f" != corpus label {entry.group_label}")
            if not result["collection"]["verified"]:
                return "collection not verified"
            if sum(result["basis"]["orbit_sizes"]) != fan.n:
                return "basis orbit sizes do not sum to the ray count"
            self.ext_pairs += result["collection"]["pairs_checked"]
            return None

        return run, check

    def warm_up_ops(self):
        return [self._op(e) for e in sorted(self.entries, key=lambda e: e.fan.n)[:3]]

    def round(self):
        order = list(self.entries)
        self.rng.shuffle(order)
        return [self._op(e) for e in order]


class CohomologySweep(Workload):
    """One op: one `line_bundle_cohomology(fan, D)`; divisors come as (D, K-D)."""

    name = "cohomology-sweep"
    # Enough corpus pairs that F(a) (mostly F(10^5)) is about half the time.
    SMALL_PAIRS = 2000  # corpus fans, |c| <= 4 (acceptance criterion 7 regime)
    LARGE_PAIRS = 2000  # corpus fans, |c| <= 24
    TWISTS = (10, 10**2, 10**3, 10**4, 10**5)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fans = [e.fan for e in self._corpus()]
        self.ruled = [lattice_fan.hirzebruch_fan(a) for a in self.TWISTS]
        self.walls = {f.rays: wall_coefficients(f.rays) for f in self.fans + self.ruled}
        self.oracle_sample: list = []

    def _pair_ops(self, fan, d, sample=False):
        dual = tuple(-1 - c for c in d)
        a = self.walls[fan.rays]
        first = {}

        def run(coeffs):
            return lambda: cohomology.line_bundle_cohomology(fan, coeffs)

        def check_first(h):
            first["h"] = h
            if h.euler != chi_closed_form(a, d):
                return f"h0-h1+h2 != chi for {d} on {fan}"
            if sample and len(self.oracle_sample) < 200:
                self.oracle_sample.append((fan.rays, d, h.h0))
            return None

        def check_dual(h):
            if h.euler != chi_closed_form(a, dual):
                return f"h0-h1+h2 != chi for {dual} on {fan}"
            if "h" not in first:
                return "dual checked before its pair"
            if first["h"].as_tuple() != (h.h2, h.h1, h.h0):
                return f"Serre duality fails for {d} on {fan}"
            return None

        return [(run(d), check_first), (run(dual), check_dual)]

    def warm_up_ops(self):
        fan = self.fans[0]
        return self._pair_ops(fan, tuple(self.rng.randint(-4, 4) for _ in range(fan.n)))

    def round(self):
        rng = self.rng
        pairs = []
        for bound, count in ((4, self.SMALL_PAIRS), (24, self.LARGE_PAIRS)):
            for _ in range(count):
                fan = rng.choice(self.fans)
                d = tuple(rng.randint(-bound, bound) for _ in range(fan.n))
                pairs.append(self._pair_ops(fan, d, sample=bound == 4))
        # On F(a) the h0 box is about a*|s| by |s|+1 with s = c1 + c3, so the
        # cost spans two orders of magnitude within |c| <= 4.  One divisor per
        # value of s keeps that spread identical in every round.
        for fan in self.ruled:
            for s in range(-8, 9):
                c1 = rng.randint(max(-4, s - 4), min(4, s + 4))
                d = (rng.randint(-4, 4), c1, rng.randint(-4, 4), s - c1)
                pairs.append(self._pair_ops(fan, d))
        rng.shuffle(pairs)
        return [op for pair in pairs for op in pair]

    def final_checks(self):
        rng = random.Random(self.seed)
        sample = rng.sample(self.oracle_sample, min(30, len(self.oracle_sample)))
        return [
            f"h0 {h0} != lattice count for {d} on {list(rays)}"
            for rays, d, h0 in sample
            if lattice_count(rays, d) != h0
        ]


class GroupClassify(Workload):
    """One op: a corpus fan in a fresh basis -> aut, subgroups, classes, iso."""

    name = "group-classify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.entries = self._corpus()
        self.expected = []
        for entry in self.entries:
            aut = symmetry.compute_aut(entry.fan)
            labels = sorted(symmetry.classify_subgroup(s)
                            for s in symmetry.enumerate_subgroups(aut))
            self.expected.append((aut.order, labels))

    def _op(self, i):
        entry = self.entries[i]
        m = random_unimodular(self.rng, 3)

        def run():
            fan = lattice_fan.apply_matrix(m, entry.fan)
            aut = symmetry.compute_aut(fan)
            labels = [symmetry.classify_subgroup(s) for s in symmetry.enumerate_subgroups(aut)]
            return fan, aut.order, labels, lattice_fan.fans_isomorphic(fan, entry.fan)

        def check(out):
            fan, order, labels, iso = out
            if (order, sorted(labels)) != self.expected[i]:
                return f"aut order or subgroup classes changed by the basis {m}"
            if iso is None or {mat_apply(iso, v) for v in fan.rays} != set(entry.fan.rays):
                return f"fans_isomorphic gave {iso}, which does not map the rays"
            return None

        return run, check

    def warm_up_ops(self):
        return [self._op(i) for i in range(3)]

    def round(self):
        order = list(range(len(self.entries)))
        self.rng.shuffle(order)
        return [self._op(i) for i in order]


# The ROADMAP fixed input set, with the 12-ray D12 blow-up of dP6 written out.
FIXED_FANS = {
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "f2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "dp6": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "dp6-12": [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
               (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1)],
    "f1e5": [(1, 0), (0, 1), (-1, 10**5), (0, -1)],
    "f2e40": [(1, 0), (0, 1), (-1, 2**40), (0, -1)],
    "invalid": [(1, 0), (1, 1), (0, 1), (-1, -1), (1, -1)],
}
D12 = [((1, -1), (1, 0)), ((0, 1), (1, 0))]
FAN_COMMANDS = ("validate", "aut", "minimalize", "classify", "k0-verify", "basis",
                "collection", "decompose", "report")
GROUPLESS = {"validate", "aut", "k0-verify"}
# These two exit 1 with a MemoryError traceback (an h0 box of 2^40 points).
# They are run once per run as a defect probe, outside the timed ops, because
# the benchmark's ops must not fail; see perfbench/NOTES.md.
KNOWN_DEFECTS = (("collection", "f2e40"), ("report", "f2e40"))


class CliCommands(Workload):
    """One op: one fresh `python -m toric_surface_lab.cli <command> --json`."""

    name = "cli-commands"
    # One round of 57 ops takes about 30 s, half of it `report` on F(10^5).
    # A second round, for 10 samples beyond p90, would make a run take a
    # minute, so p90 here rests on about 5 samples beyond it.

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = {k: fan_file(workdir / f"{k}.json", rays) for k, rays in FIXED_FANS.items()}
        self.d12 = group_file(workdir / "d12.json", D12)
        self.env = child_env()
        self.child_rss_mb = 0.0
        self.child_spans: list = []

    def round(self):
        """Every command once on the fixed input set, in a seeded order."""
        out = []  # (argv, expected exit code)
        for key in ("p2", "f2", "dp6", "dp6-12", "f1e5", "f2e40"):
            for command in FAN_COMMANDS:
                if (command, key) in KNOWN_DEFECTS:
                    continue
                argv = [command, "--fan", self.files[key]]
                if key.startswith("dp6") and command not in GROUPLESS:
                    argv += ["--group", self.d12]
                out.append((argv, 0))
        out.append((["classify-group", "--group", self.d12], 0))
        out.append((["classify-group"], 0))
        out.append((["basis", "--fan", self.files["dp6"], "--group", self.d12, "--bound", "1"], 0))
        out.append((["collection", "--fan", self.files["dp6"], "--group", self.d12,
                     "--order", "reversed"], 1))
        out.append((["validate", "--fan", self.files["invalid"]], 2))
        self.rng.shuffle(out)
        return [self._op(argv, expected) for argv, expected in out]

    def spawn(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one CLI process; returns (exit code, stdout, its peak RSS in MB)."""
        spans = self.workdir / "spans.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "toric_surface_lab.cli"] + argv
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), usage.ru_maxrss / 1024.0

    def _op(self, argv, expected):
        argv = argv + ["--json"]

        def run():
            return self.spawn(argv)

        def check(out):
            code, text, rss = out
            self.child_rss_mb = max(self.child_rss_mb, rss)
            if self.traced:
                self._collect_spans()
            if code != expected:
                return f"{' '.join(argv)}: exit {code}, expected {expected}"
            try:
                result = json.loads(text).get("result", {})
            except json.JSONDecodeError:
                return f"{' '.join(argv)}: stdout is not JSON"
            if code == 0 and "collection" in result:
                self.ext_pairs += result["collection"]["pairs_checked"]
            return None

        return run, check

    def _collect_spans(self):
        path = self.workdir / "spans.json"
        if not path.exists():
            return
        payload = json.loads(path.read_text())
        path.unlink()
        self.child_spans.append(payload["spans"])
        for key, (hits, misses) in payload["cache"].items():
            row = self.child_cache.setdefault(key, [0, 0])
            row[0] += hits
            row[1] += misses

    def warm_up_ops(self):
        return [self._op(["validate", "--fan", self.files["p2"]], 0)]

    def peak_rss_mb(self):
        return self.child_rss_mb

    def take_child_spans(self):
        spans, self.child_spans = self.child_spans, []
        return spans

    def known_defects(self):
        out = []
        for command, key in KNOWN_DEFECTS:
            code, _, _ = self.spawn([command, "--fan", self.files[key], "--json"])
            if code != 0:
                out.append(f"{command} on {key}: exit {code} (want 0)")
        return out


WORKLOADS = {w.name: w for w in (CertifyCorpus, CohomologySweep, GroupClassify, CliCommands)}
