"""Seeded inputs, op lists and closed-form expectations for each workload.

A rung is one family member at a fixed dimension.  The seed picks the
block partitions of the N/SN/NP/SNP members (the number of blocks and
their totals are fixed, so the dimension and the number of nonzero
structure constants do not depend on the seed), the entries of the change
of basis of `derive_dense`, and the order of the ops.  Every expected answer below is
a closed form from the paper's theorems or read off the family's defining
law by hand; none is a value recorded from the code under test.
"""

import os
import random

WORKLOADS = ("derive_sparse", "derive_dense", "survey")

# Entries of the change of basis of derive_dense.
DENSE_ENTRIES = (-2, -1, 1, 2)


class Rung:
    """One family member.  `even`/`odd` are (n,)/(m,) for the filiform
    families and the block lists for the block families."""

    def __init__(self, family, even, odd, dense=False):
        self.family = family
        self.even = tuple(even)
        self.odd = tuple(odd)
        self.dense = dense

    @property
    def filiform(self):
        return self.family in ("L", "SL", "LP", "SLP")

    @property
    def leibniz(self):
        return self.family.endswith("P")

    @property
    def solvable(self):
        return self.family.startswith("S")

    @property
    def dims(self):
        """(even, odd) dimension of the member."""
        if self.filiform:
            n, m = self.even[0], self.odd[0]
            return n + (3 if self.solvable else 0), m
        k, p = len(self.even), len(self.odd)
        torus = k + 1 + p if self.solvable else 0
        return sum(self.even) + 1 + torus, sum(self.odd)

    @property
    def dim(self):
        return sum(self.dims)

    @property
    def tag(self):
        parts = [self.family, "-".join(map(str, self.even)),
                 "-".join(map(str, self.odd))]
        return "_".join(parts) + ("_dense" if self.dense else "")

    def gen_flags(self):
        flags = ["--family", self.family]
        for v in self.even:
            flags += ["--even", str(v)]
        for v in self.odd:
            flags += ["--odd", str(v)]
        return flags

    def build(self, superalg):
        """The member exactly as `superalg gen` builds it."""
        if self.family in ("L", "SL"):
            return superalg.model_filiform_lie(self.even[0], self.odd[0],
                                               solvable=self.solvable)
        if self.family in ("LP", "SLP"):
            return superalg.filiform_leibniz(self.even[0], self.odd[0],
                                             solvable=self.solvable)
        if self.family in ("N", "SN"):
            return superalg.model_nilpotent_lie(self.even, self.odd,
                                                solvable=self.solvable)
        return superalg.model_nilpotent_leibniz(self.even, self.odd,
                                                solvable=self.solvable)

    # ---- closed forms ------------------------------------------------

    def der_dims(self):
        """(dim Der_even, dim Der_odd) from theorems 7.1-7.4."""
        if self.family == "SL":
            return self.even[0] + 3, self.odd[0]
        if self.family == "SLP":
            return 4, 0
        k, p = len(self.even), len(self.odd)
        if self.family == "SN":
            return sum(self.even) + 1 + k + 1 + p, sum(self.odd)
        if self.family == "SNP":
            return k + p + 2, 0
        raise ValueError("no derivation closed form for %s" % self.family)

    def chains(self):
        """Lengths of the even and odd chains of a nilpotent member.

        L^{n,m} and LP^{n,m} have one even chain x2..xn and one odd chain
        y1..ym; N and NP have one chain per block.  x1 lies on no chain.
        """
        if self.filiform:
            return [self.even[0] - 1], [self.odd[0]]
        return list(self.even), list(self.odd)

    def lcs_dims(self):
        """dim C^k: the whole space, then sum over chains of max(c - k, 0)."""
        even, odd = self.chains()
        out = [self.dim]
        for k in range(1, max(even + odd) + 1):
            out.append(sum(max(c - k, 0) for c in even + odd))
        return out

    def s_nilindex(self):
        even, odd = self.chains()
        return [max(even), max(odd)]

    def charseq(self):
        """Jordan type of multiplication by x1: the chains plus x1 itself."""
        even, odd = self.chains()
        return sorted(even + [1], reverse=True), sorted(odd, reverse=True)

    def ann_dim(self):
        """Right annihilator {x : [A, x] = 0}.

        Lie kind: the centre, spanned by the last element of each chain.
        Leibniz kind: x1 is the only label that occurs on the right of a
        bracket, so everything but x1.
        """
        if self.leibniz:
            return self.dim - 1
        even, odd = self.chains()
        return len(even) + len(odd)


def _composition(rng, total, parts, least=2):
    """A random composition of `total` into `parts` parts, each >= least."""
    spare = total - parts * least
    if spare < 0:
        raise ValueError("cannot split %d into %d parts of at least %d"
                         % (total, parts, least))
    cuts = sorted(rng.randint(0, spare) for _ in range(parts - 1))
    bounds = [0] + cuts + [spare]
    return tuple(least + bounds[i + 1] - bounds[i] for i in range(parts))


def _blocks(rng, family, k, even_total, p, odd_total, dense=False):
    return Rung(family, _composition(rng, even_total, k),
                _composition(rng, odd_total, p), dense)


def rungs(workload, rng):
    """The workload's dimension ladder; the last rung is the top rung."""
    if workload == "derive_sparse":
        return [
            Rung("SL", (4,), (3,)),                             # dim 10
            Rung("SLP", (6,), (5,)),                            # dim 14
            _blocks(rng, "SN", 2, 4, 2, 4),                     # dim 14
            _blocks(rng, "SNP", 2, 5, 2, 4),                    # dim 15
            Rung("SL", (8,), (6,)),                             # dim 17, top
        ]
    if workload == "derive_dense":
        return [
            Rung("SL", (4,), (3,), True),                       # dim 10
            Rung("SLP", (5,), (4,), True),                      # dim 12
            _blocks(rng, "SNP", 2, 5, 1, 2, True),              # dim 12
            _blocks(rng, "SN", 2, 4, 1, 3, True),               # dim 12
            Rung("SL", (6,), (5,), True),                       # dim 14, top
        ]
    if workload == "survey":
        return [
            Rung("LP", (14,), (12,)),                           # dim 26
            _blocks(rng, "NP", 3, 12, 2, 15),                   # dim 28
            _blocks(rng, "N", 3, 15, 3, 14),                    # dim 30
            Rung("L", (22,), (20,)),                            # dim 42, top
        ]
    raise ValueError("unknown workload %r" % (workload,))


# verify fixtures of the survey: modest sizes, every block long enough for
# the 6.1 sweep to force its parameter.
VERIFY = [
    ("3.1", ["--even", "6", "--odd", "5"]),
    ("4.1", ["--even", "2", "--even", "3", "--odd", "2", "--odd", "2"]),
    ("5.1", ["--even", "6", "--odd", "5"]),
    ("6.1", ["--even", "2", "--even", "2", "--odd", "2"]),
]


class Op:
    """One CLI invocation: its argv, the rung it reads (None for verify)
    and the command name the oracle dispatches on."""

    def __init__(self, command, argv, rung=None):
        self.command = command
        self.argv = argv
        self.rung = rung


def change_of_basis_map(superalg, A, rng):
    """Seeded parity-preserving integer unitriangular change of basis.

    In each parity block, basis vector j becomes e_j plus c * e_i for every
    earlier i in the block with (i + j) % 3 == 0: about a third of the
    above-diagonal positions, spread evenly over rows and columns.  The
    seed draws each c from DENSE_ENTRIES.  The positions are fixed because
    letting the seed choose them varies the density of the rewritten law,
    and the elimination cost with it, by a factor of three (164 to 542
    nonzero constants for SL^{7,5}).  The inverse is integral, so the law
    keeps integer constants and the same Der dimensions.
    """
    mapping = {}
    for block in (A.even_basis, A.odd_basis):
        for j, label in enumerate(block):
            image = {label: 1}
            for i in range(j):
                if (i + j) % 3 == 0:
                    image[block[i]] = rng.choice(DENSE_ENTRIES)
            mapping[label] = superalg.Element(image)
    return mapping


def law_nnz(A):
    """Number of nonzero structure constants of the law."""
    return sum(len(el.coords) for el in A.brackets.values())


class Plan:
    """The seeded rungs and ops of one workload run."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % (workload,))
        self.workload = workload
        rng = random.Random("%s/%d" % (workload, seed))
        self.rungs = rungs(workload, rng)
        self.top = self.rungs[-1]
        if any(r.dim >= self.top.dim for r in self.rungs[:-1]):
            raise ValueError("the last rung of %s is not the largest" % workload)
        self.cob_seed = rng.getrandbits(64)
        self.order_seed = rng.getrandbits(64)

    def path(self, workdir, rung):
        return os.path.join(workdir, rung.tag + ".json")

    def write_inputs(self, superalg, workdir):
        """Build every input file the ops read; the set-up of a run."""
        if self.workload == "survey":
            return  # the survey's own `gen` ops write its inputs
        rng = random.Random(self.cob_seed)
        for rung in self.rungs:
            A = rung.build(superalg)
            if rung.dense:
                A = superalg.change_of_basis(A, change_of_basis_map(superalg, A, rng))
            superalg.dump_algebra(A, self.path(workdir, rung))

    def ops(self, workdir):
        """The op list in its seeded order; the same list every pass."""
        rng = random.Random(self.order_seed)
        if self.workload == "survey":
            return self._survey_ops(workdir, rng)
        ops = []
        for rung in self.rungs:
            path = self.path(workdir, rung)
            ops.append(Op("inner", ["inner", path, "--format", "json"], rung))
            ops.append(Op("der", ["der", path, "--parity", "both",
                                  "--format", "json"], rung))
        rng.shuffle(ops)
        return ops

    def _survey_ops(self, workdir, rng):
        groups = []
        for rung in self.rungs:
            path = self.path(workdir, rung)
            analyses = [Op("classify", ["classify", path, "--skip-validate",
                                        "--format", "json"], rung),
                        Op("series", ["series", path, "--which", "lcs",
                                      "--skip-validate", "--format", "json"], rung),
                        Op("charseq", ["charseq", path, "--skip-validate",
                                       "--format", "json"], rung),
                        Op("ann", ["ann", path, "--skip-validate",
                                   "--format", "json"], rung)]
            rng.shuffle(analyses)
            groups.append([Op("gen", ["gen"] + rung.gen_flags() + ["-o", path], rung),
                           Op("check", ["check", path, "--format", "json"], rung)]
                          + analyses)
        for theorem, flags in VERIFY:
            groups.append([Op("verify", ["verify", "--theorem", theorem]
                              + flags + ["--format", "json"])])
        rng.shuffle(groups)
        return [op for group in groups for op in group]
