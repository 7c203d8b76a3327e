"""The four workloads: inputs made from the seed, calls into roofpairs, oracles.

A workload hands out blocks of ops; ``blocks_per_s`` is how many blocks a
2-vCPU host runs in about a second, which sizes a run of S seconds.  Each op
has ``run`` (the timed call into the program), ``check`` (the untimed
oracle: returns None, a short failure class when the output is wrong, or
an exception that escaped the program inside ``run`` and was kept) and
``replay`` (the input, printed with the first failure of each class).
Blocks have a fixed composition, so every run measures the same mix whatever
its seed and length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from math import comb, prod

import calibrate as cal
import oracles as orc

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    __slots__ = ("label", "run", "check", "replay")

    def __init__(self, label, run, check, replay):
        self.label, self.run, self.check, self.replay = label, run, check, replay


class Workload:
    """Defaults; a workload overrides what it needs."""

    in_process = True
    clock = cal.Clock
    verdicts: tuple = ()

    def warmup(self) -> None:
        pass

    def close(self) -> None:
        pass


def _mismatch(report: dict, expected: dict):
    """First key whose value differs from the expected one, or None."""
    for key, want in expected.items():
        got = report
        for part in key.split("."):
            got = got[int(part)] if isinstance(got, list) else got.get(part)
        if got != want:
            return key
    return None


# ---------------------------------------------------------------------------
# golden: the README session, one fresh process per command
# ---------------------------------------------------------------------------

G2_GRAM = [[0, 1, 5], [1, 10, 32], [5, 32, 82]]
D4_GRAM = [[0, 0, 0, 1, 6], [0, 0, 1, 6, 22], [0, 1, 0, 6, 22],
           [1, 6, 6, 44, 126], [6, 22, 22, 126, 308]]


def _side_values(i, gram, smith, locus, pairing):
    return {f"sides.{i}.gram": gram, f"sides.{i}.gram_determinant": -12,
            f"sides.{i}.smith_factors": smith, f"sides.{i}.discriminant_group": "Z/12",
            f"sides.{i}.zero_locus_degree": 12, f"sides.{i}.locus_coordinates": locus,
            f"sides.{i}.locus_self_pairing": pairing}


# Published values (README / paper), one entry per command of the session.
PUBLISHED = {
    "describe g2dagger": {
        "polarization_degree": 12,
        "sides.0.relation": "xi^3 - 5*L*xi^2 + 9*L^2*xi - 12*Pi = 0",
        **_side_values(0, G2_GRAM, [1, 1, 12], [18, -5, 1], 12),
        **_side_values(1, G2_GRAM, [1, 1, 12], [18, -5, 1], 12)},
    "describe d4": {
        "polarization_degree": 12,
        **_side_values(0, D4_GRAM, [1, 1, 1, 1, 12], [30, -14, -14, 6, -1], -12),
        **_side_values(1, D4_GRAM, [1, 1, 1, 1, 12], [30, -14, -14, 6, -1], -12)},
    "lemma7 g2dagger": {
        "residue_set": [7], "sign_orbit": [5, 7], "iso_obstructed": True,
        "switched_locus.coordinates": [42, -23, 7], "tilde_locus.coordinates": [18, -5, 1],
        "declared_form.witness.k": 7, "declared_form.witness.coordinates": [-7, 1, 0]},
    "lemma7 d4": {
        "residue_set": [5], "sign_orbit": [5, 7], "iso_obstructed": True,
        "switched_locus.coordinates": [-42, 38, 50, -30, 7],
        "tilde_locus.coordinates": [30, -14, -14, 6, -1],
        "declared_form.witness.k": -7, "declared_form.witness.coordinates": [-14, 5, 4, -1, 0]},
    "bwb 5 Sym2Sdual -3": {"table": {"2": 1}},
    "bwb 5 G 1": {"table": {"0": 41}},
    "bwb --case 1": {"table": {"0": 1}},
    "bwb --case 2": {"table": {"2": 1}},
    "bwb --case 3": {"table": {"2": 1}},
    "mukai g2dagger": {
        "theta_v.coordinates": [1, 0, 0], "theta_w.coordinates": [-5, 1, 0],
        "solution_orbits": 1, "switched_generator.coordinates": [5, -3, 1],
        "mukai_vector": [2, 1, -3]},
    "motivic": {"all_match": True},
    "verify-all": {"passed": True, "total": 60, "failures": 0},
}
SESSION = ("--version",) + tuple(PUBLISHED)


def _golden_check(command: str, proc) -> str | None:
    if "Traceback (most recent call last)" in proc.stderr:
        return f"escaped exception: {proc.stderr.strip().splitlines()[-1]}"
    if proc.returncode != 0:
        return f"exit {proc.returncode}"
    if command == "--version":
        return None if proc.stdout.startswith("roofpairs ") else "version text"
    report = json.loads(proc.stdout)
    key = _mismatch(report, PUBLISHED[command])
    if key is None and command == "motivic":
        ranks = [row["rank"] for row in report["identities"]]
        if ranks != list(range(2, 13)):
            key = "ranks"
        elif any(orc.parse_motivic(row["residual"]) != orc.residual_by_hand(row["rank"])
                 for row in report["identities"]):
            key = "residual"
    return None if key is None else f"{command}: {key}"


class Golden(Workload):
    name = "golden"
    blocks_per_s = 0.15
    in_process = False
    clock = cal.ChildClock

    def __init__(self, root: str, seed: int):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out_dir = os.path.join(root, ".bench_out")
        self.summaries: list[tuple[str, dict]] = []
        self.traced = False

    def setup_once(self) -> None:
        """Warm the interpreter, the bytecode cache and the page cache in a child."""
        proc = subprocess.run([sys.executable, "-c", "import roofpairs.cli, numpy"],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import roofpairs from src/: {proc.stderr.strip()}")

    def _run(self, command: str):
        argv = command.split() + ([] if command == "--version" else ["--json"])
        if not self.traced:
            return subprocess.run([sys.executable, "-m", "roofpairs", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=170)
        os.makedirs(self.out_dir, exist_ok=True)
        fd, path = tempfile.mkstemp(dir=self.out_dir, suffix=".json")
        os.close(fd)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "bootstrap.py"), path, *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=170)
            with open(path, encoding="utf-8") as fh:
                self.summaries.append((command, json.load(fh)))
        finally:
            os.unlink(path)
        return proc

    def block(self, i: int) -> list[Op]:
        return [Op(c, lambda c=c: self._run(c), lambda p, c=c: _golden_check(c, p), c)
                for c in SESSION]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            os.rmdir(self.out_dir)


# ---------------------------------------------------------------------------
# lattice: seeded random integer matrices through the exact kernels
# ---------------------------------------------------------------------------

LATTICE_CLASSES = tuple((n, bound) for n in range(3, 11) for bound in (20, 1000))


def _lattice_check(m, s, sub, out) -> str | None:
    snf, d, group, kernel = out
    n = len(m)
    U, D, V = snf.U, snf.D, snf.V
    if orc.matmul(orc.matmul(U, m), V) != [list(r) for r in D]:
        return "smith: U*M*V != D"
    diag = [D[i][i] for i in range(n)]
    if any(D[i][j] for i in range(n) for j in range(n) if i != j) or min(diag) < 0:
        return "smith: D not a nonnegative diagonal"
    if not orc.divisibility_chain(diag):
        return "smith: divisibility chain"
    if abs(orc.bareiss_det(U)) != 1 or abs(orc.bareiss_det(V)) != 1:
        return "smith: transform not unimodular"
    det_m = orc.bareiss_det(m)
    if d != det_m:
        return "det"
    if abs(det_m) != prod(diag):
        return "smith: |det M| != product of factors"
    if prod(group.factors) != abs(orc.bareiss_det(s)) or min(group.factors, default=2) < 2 \
            or not orc.divisibility_chain(group.factors):
        return "discriminant group order"
    rows = [[sum(s[i][j] * v[j] for j in range(n)) for i in range(n)] for v in sub]
    if len(kernel) != n - orc.rank(rows):
        return "orthogonal kernel: rank"
    for v in kernel:
        if orc.vec_gcd(v) != 1:
            return "orthogonal kernel: not primitive"
        if any(sum(a * b for a, b in zip(v, row)) for row in rows):
            return "orthogonal kernel: not orthogonal"
    return None


class Lattice(Workload):
    name = "lattice"
    blocks_per_s = 3.2

    def __init__(self, root: str, seed: int):
        self.rng = random.Random(seed)
        self.blocks: list[list[Op]] = []

    def setup_once(self) -> None:
        import roofpairs.latticecore
        self.lc = roofpairs.latticecore

    def warmup(self) -> None:
        for op in self._make_block(random.Random(-1)):
            op.check(op.run())

    def _make_block(self, rng) -> list[Op]:
        classes = list(LATTICE_CLASSES)
        rng.shuffle(classes)
        ops = []
        for n, bound in classes:
            m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            s = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
            while orc.bareiss_det(s) == 0:
                s = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(s)]
            sub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]

            def run(m=m, s=s, sub=sub):
                lc = self.lc
                return (lc.smith_normal_form(m), lc.det(m),
                        lc.discriminant_group(s), lc.orthogonal_kernel(s, sub))

            ops.append(Op(f"{n}x{n} |a|<={bound}", run,
                          lambda out, m=m, s=s, sub=sub: _lattice_check(m, s, sub, out),
                          {"matrix": m, "symmetric": s, "sublattice": sub}))
        return ops

    def block(self, i: int) -> list[Op]:
        while len(self.blocks) <= i:
            self.blocks.append(self._make_block(self.rng))
        return self.blocks[i]


# ---------------------------------------------------------------------------
# roofs: distinct synthetic roof configuration files through cli.main
# ---------------------------------------------------------------------------

def _l_power(n: int, p: int) -> dict[str, int]:
    """L^p on the basis of the quadric Q_n, in the labels of the config format."""
    m = n // 2
    if n % 2:
        if p <= m:
            return {"L" if p == 1 else f"L^{p}": 1}
        j = p - m - 1
        return {"Pi" if j == 0 else ("Pi*L" if j == 1 else f"Pi*L^{j}"): 2}
    if p < m:
        return {"L" if p == 1 else f"L^{p}": 1}
    if p == m:
        return {"Pi1": 1, "Pi2": 1}
    j = p - m
    return {"Pi1*L" if j == 1 else f"Pi1*L^{j}": 2}


def _basis(n: int) -> list[tuple[str, int]]:
    m = n // 2
    lp = lambda p: "L" if p == 1 else f"L^{p}"  # noqa: E731
    if n % 2:
        pis = [("Pi" if j == 0 else ("Pi*L" if j == 1 else f"Pi*L^{j}"), m + 1 + j)
               for j in range(m + 1)]
        return [("1", 0)] + [(lp(p), p) for p in range(1, m + 1)] + pis
    pis = [("Pi1*L" if j == 1 else f"Pi1*L^{j}", m + j) for j in range(1, m + 1)]
    return [("1", 0)] + [(lp(p), p) for p in range(1, m)] + [("Pi1", m), ("Pi2", m)] + pis


def _switch(b: list[int]) -> list[int]:
    """Coefficients of f(xi - L, xi) for f = sum_i b_i L^i xi^(r-i)."""
    out = [0] * len(b)
    for i, bi in enumerate(b):
        for k in range(i + 1):
            out[k] += bi * comb(i, k) * (-1) ** k
    return out


def roof_relation(rng, r: int, amp: int) -> list[int]:
    """Relation coefficients a_1..a_r (c_i = a_i L^i) with f(xi-L, xi) = (-1)^r f.

    f = g + (-1)^r g(xi - L, xi) for random g, with g_0 chosen so that f is
    monic in xi; a_r > 0 keeps the polarization degree 2*a_r positive.
    """
    while True:
        g = [0] + [rng.randint(-amp, amp) for _ in range(r)]
        s = sum(g)
        if r % 2 == 0:
            if s % 2 == 0:
                continue
            g[0] = (1 - s) // 2
        elif s != -1:
            continue
        f = [x + (-1) ** r * y for x, y in zip(g, _switch(g))]
        a = [(-1) ** i * c for i, c in enumerate(f)]
        if a[r] > 0:
            return a[1:]


def roof_config(n: int, a: list[int], name: str) -> dict:
    r = n - 2
    side = {
        "groth": [[[lbl, c * a[i - 1]] for lbl, c in _l_power(n, i).items()]
                  for i in range(1, r + 1)],
        "middle_basis": [[lbl, r - d] for lbl, d in _basis(n) if 0 <= r - d < r],
        "declared_locus_sign": 1,
    }
    return {"name": name, "rank": r, "base_dim": [n, n], "polarization_degree": 2 * a[-1],
            "sides": [side, json.loads(json.dumps(side))]}


def _roofs_check(cfg, out):
    """describe's invariants, then lemma7's scan; an escape from lemma7 is returned."""
    (code, stdout, _), lemma7 = out
    if code != 0:
        return None
    rep = json.loads(stdout)
    d, r = cfg["polarization_degree"], cfg["rank"]
    for side in rep["sides"]:
        if side["zero_locus_degree"] != d:
            return "describe: zero-locus degree != declared degree"
        if side["locus_self_pairing"] != (-1) ** (r - 1) * d:
            return "describe: sign law"
        det = orc.bareiss_det(side["gram"])
        if side["gram_determinant"] != det or prod(side["smith_factors"]) != abs(det) \
                or not orc.divisibility_chain(side["smith_factors"]):
            return "describe: gram invariants"
    if isinstance(lemma7, Exception):
        return lemma7
    code, stdout, _ = lemma7
    if code != 0:
        return None
    rep7 = json.loads(stdout)
    j, jt = rep7["switched_locus"]["coordinates"], rep7["tilde_locus"]["coordinates"]
    if jt != rep["sides"][1]["locus_coordinates"]:
        return "lemma7: tilde locus differs from describe"
    if rep7["residue_set"] != orc.residues(j, jt, d):
        return "lemma7: residue set"
    for w in rep7["witnesses"]:
        if [a - w["k"] * b for a, b in zip(j, jt)] != [d * x for x in w["coordinates"]]:
            return "lemma7: witness"
    return None


class Roofs(Workload):
    name = "roofs"
    blocks_per_s = 0.9
    DIMS = tuple(range(4, 11))

    def __init__(self, root: str, seed: int):
        self.rng = random.Random(seed)
        self.out_dir = os.path.join(root, ".bench_out")
        self.blocks: list[list[Op]] = []
        self.seen: set = set()
        self.tmp = None

    def setup_once(self) -> None:
        import roofpairs.cli
        self.cli = roofpairs.cli
        if self.tmp is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.tmp = tempfile.TemporaryDirectory(dir=self.out_dir)

    def warmup(self) -> None:
        for op in self._make_block(random.Random(-1), "warm", set()):
            op.check(op.run())

    def _query(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def _describe_then_lemma7(self, path):
        """Both queries of one config; an exception escaping lemma7 is kept, not raised,
        so that describe's output is still checked."""
        described = self._query(["describe", "--config", path, "--json"])
        try:
            return described, self._query(["lemma7", "--config", path, "--json"])
        except Exception as exc:  # noqa: BLE001 - reported by the check as an escape
            return described, exc

    def _make_block(self, rng, tag, seen) -> list[Op]:
        dims = list(self.DIMS)
        rng.shuffle(dims)
        ops = []
        for n in dims:
            amp = 2
            while True:
                a = roof_relation(rng, n - 2, amp)
                if (n, tuple(a)) not in seen:
                    break
                amp += 1
            seen.add((n, tuple(a)))
            cfg = roof_config(n, a, f"{tag}-q{n}-{len(seen)}")
            path = os.path.join(self.tmp.name, cfg["name"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            ops.append(Op(f"Q{n}", lambda path=path: self._describe_then_lemma7(path),
                          lambda out, cfg=cfg: _roofs_check(cfg, out),
                          {"argv": ["describe|lemma7", "--config", "F", "--json"], "F": cfg}))
        return ops

    def block(self, i: int) -> list[Op]:
        while len(self.blocks) <= i:
            self.blocks.append(self._make_block(self.rng, "roof", self.seen))
        return self.blocks[i]

    def close(self) -> None:
        if self.tmp is not None:
            self.tmp.cleanup()
        with contextlib.suppress(OSError):
            os.rmdir(self.out_dir)


# ---------------------------------------------------------------------------
# cohomology: BWB tables, the Q5 sequence pipelines, motivic identities
# ---------------------------------------------------------------------------

def dictionary(n: int) -> tuple[str, ...]:
    if n == 5:
        return ("O", "S", "Sdual", "Sym2S", "Sym2Sdual", "Wedge2S", "Wedge2Sdual")
    return ("O", "S", "Sdual") if n % 2 else ("O", "Splus", "Sminus", "Splusdual", "Sminusdual")


DUAL = {"O": "O", "S": "Sdual", "Sdual": "S", "Sym2S": "Sym2Sdual", "Sym2Sdual": "Sym2S",
        "Wedge2S": "Wedge2Sdual", "Wedge2Sdual": "Wedge2S", "Splus": "Splusdual",
        "Splusdual": "Splus", "Sminus": "Sminusdual", "Sminusdual": "Sminus",
        "G": "Gdual", "Gdual": "G", "C": "Cdual", "Cdual": "C"}
REDUCIBLE = ("Wedge2S", "Wedge2Sdual")
VANISHING = {1: {0: 1}, 2: {2: 1}, 3: {2: 1}}


def _table_check(n, name, t, out) -> str | None:
    table, dual = out
    if orc.serre_dual(table, n) != dual:
        return "Serre duality"
    if any(not isinstance(v, int) or v <= 0 for v in table.values()):
        return "nonpositive dimension"
    if name == "O" and table != orc.line_bundle_table(n, t):
        return "h^i(O(t)) closed form"
    if name not in REDUCIBLE and len(table) > 1:
        return "irreducible weight with two nonzero groups"
    if (n, name, t) == (5, "G", 1) and table != {0: 41}:
        return "h^0(G(1)) = 41"
    return None


class Cohomology(Workload):
    name = "cohomology"
    blocks_per_s = 3.0
    TABLES_PER_BLOCK = 24
    PIPELINES_PER_BLOCK = 4
    TWISTS = range(-15, 16)

    def __init__(self, root: str, seed: int):
        self.rng = random.Random(seed)
        self.blocks: list[list[Op]] = []
        self.seqs = self._sequences(self.rng)

    @classmethod
    def _sequences(cls, rng):
        """Seeded orders of every table, every pipeline and every motivic rank pair.

        Ranks come in pairs (r, 122 - r), one pair per block, so that any
        run of 60 blocks (20 s) covers ranks 2..120 once and the heavy ranks that
        set the tail are always present.
        """
        tables = [(n, name, t) for n in range(5, 16) for name in dictionary(n)
                  for t in cls.TWISTS]
        pipelines = [(name, t) for name in ("G", "Gdual", "C", "Cdual") for t in cls.TWISTS]
        pairs = [(r, 122 - r) for r in range(2, 62)]
        for seq in (tables, pipelines, pairs):
            rng.shuffle(seq)
        return tables, pipelines, pairs

    def setup_once(self) -> None:
        import roofpairs.bwbcoh
        import roofpairs.motivicring
        self.b, self.mr = roofpairs.bwbcoh, roofpairs.motivicring
        self.verdicts = (roofpairs.bwbcoh.BWBError,)

    def warmup(self) -> None:
        rng = random.Random(-1)
        for op in self._make_block(0, self._sequences(rng), rng):
            with contextlib.suppress(self.b.BWBError):
                op.check(op.run())

    def _make_block(self, i: int, seqs, rng) -> list[Op]:
        tables, pipelines, pairs = seqs
        ops = []
        k = self.TABLES_PER_BLOCK
        for j in range(i * k, (i + 1) * k):
            n, name, t = tables[j % len(tables)]
            ops.append(Op(
                f"table Q{n}", lambda n=n, name=name, t=t: (
                    self.b.bundle_cohomology(n, name, t),
                    self.b.bundle_cohomology(n, DUAL[name], -n - t)),
                lambda out, n=n, name=name, t=t: _table_check(n, name, t, out),
                {"table": [n, name, t], "serre_partner": [n, DUAL[name], -n - t]}))
        k = self.PIPELINES_PER_BLOCK
        for j in range(i * k, (i + 1) * k):
            name, t = pipelines[j % len(pipelines)]
            ops.append(Op(
                f"pipeline {name}", lambda name=name, t=t: (
                    self.b.named_bundle_table(5, name, t),
                    self.b.named_bundle_table(5, DUAL[name], -5 - t)),
                lambda out, name=name, t=t: _table_check(5, name, t, out),
                {"pipeline": [5, name, t], "serre_partner": [5, DUAL[name], -5 - t]}))
        for case, want in VANISHING.items():
            ops.append(Op(f"vanishing case {case}", lambda case=case: self.b.vanishing_case(case),
                          lambda out, want=want: None if out == want else "vanishing case",
                          {"vanishing_case": case}))
        ops.append(Op("ideal section", lambda: self.b.ideal_section_table(),
                      lambda out: None if out == {0: 1} else "ideal sheaf sections",
                      {"ideal_section_table": []}))
        for r in pairs[i % len(pairs)]:
            ops.append(Op("motivic", lambda r=r: self.mr.l_equivalence_residual(r),
                          lambda out, r=r: None if out.coeffs == orc.residual_by_hand(r)
                          else "motivic residual", {"l_equivalence_residual": r}))
        rng.shuffle(ops)
        return ops

    def block(self, i: int) -> list[Op]:
        while len(self.blocks) <= i:
            self.blocks.append(self._make_block(len(self.blocks), self.seqs, self.rng))
        return self.blocks[i]


WORKLOADS = {w.name: w for w in (Golden, Lattice, Roofs, Cohomology)}
