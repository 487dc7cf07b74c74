"""Canned problem instances and the JSON instance loader.

A scenario packages a point group acting uniserially on a p-adic lattice at
finite precision, together with the derived central chain, the exponent
thresholds, and the finite top quotient used for extension and branch work.
Two instances are built in:

  - "dihedral_mainline": C2 negating Z_2 (rank 1, period 1), the pro-2
    dihedral group of coclass 1;
  - "d8_gaussian": the dihedral group of order 8 on the Gaussian integers
    Z_2[i] with a acting as complex conjugation and b as multiplication by
    i (rank 2, period 2), whose semidirect product is a pro-2-group of
    coclass 3.

The module also hosts the headline verification routines shared by the CLI:
the lower-central-series identification of the semidirect product's finite
quotients, the scan for an endomorphism whose compatible-pair action moves
the lattice summand of H^2 out of itself, and the two-level orbit
correspondence report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import CoclassError, Owner, cohomology, extensions, groups, linalg, modules, pairs
from .groups import GroupTable
from .modules import CentralChain, LatticeModule, QuotientModule


class ScenarioError(CoclassError):
    pass


REQUIRED_FIELDS = (
    "name", "p", "rank", "precision", "depth", "group", "action",
    "top_offset", "pro_coclass",
)


@dataclass(eq=False)
class Scenario(Owner):
    """A validated problem instance; heavy artifacts are built lazily.

    The scenario owns its group, lattice, chain, period, bounds and stages;
    the chains own what is derived from them (see `modules.CentralChain`).
    """

    name: str
    p: int
    rank: int
    precision: int
    depth: int
    group_spec: dict
    action: list  # one integer matrix per group generator, in generator order
    top_offset: int  # chain index j with gamma_{1+j}(semidirect product) = 1 x T_j
    pro_coclass: int

    @property
    def l(self) -> int:
        """Lower-central index of the first fiber term: gamma_l = 1 x T_{l-1}."""
        return self.top_offset + 1

    def group(self) -> GroupTable:
        return self.derived("group", lambda: groups.build_group(self.group_spec))

    def lattice(self) -> LatticeModule:
        def build():
            G = self.group()
            act = {g: np.asarray(m, dtype=np.int64)
                   for g, m in zip(G.generators, self.action)}
            return modules.lattice_module(G, act, self.p, self.precision)
        return self.derived("lattice", build)

    def chain(self) -> CentralChain:
        return self.derived("chain", lambda: modules.g_central_series(self.lattice(), self.depth))

    def period(self) -> int:
        def build():
            d = modules.chain_period(self.lattice(), self.chain())
            if d is None:
                raise ScenarioError("central chain has no period at depth %d" % self.depth)
            return d
        return self.derived("period", build)

    def bounds(self) -> pairs.ExponentBounds:
        """Exponent thresholds, taken over one full period of levels."""
        def build():
            T, chain, d = self.lattice(), self.chain(), self.period()
            a = b = 0
            for n in range(1, d + 1):
                bd = pairs.exponent_bounds(T, chain, n, d)
                a = max(a, bd.a_exp)
                b = max(b, bd.b_exp)
            return pairs.ExponentBounds(self.p, d, a, b)
        return self.derived("bounds", build)

    def quotient(self, n: int) -> QuotientModule:
        return self.chain().quotient(n)

    def stage_order(self, k: int) -> int:
        """The order |G0| [T : T_{kd}] of stage k, known before its table is built."""
        return self.group().order * self.quotient(k * self.period()).module.order

    def stage(self, k: int) -> "TopQuotient":
        """The quotient R by 1 x T_{k d} acting on the rescaled fiber; stage 0 is G0 on T.

        R acts on T through its projection onto G0, and its chain is the
        scenario chain pulled back along it.  That is R's own chain, with the
        same bases and period: T_{i+1} = span{t.g - t} depends only on the
        set of acting matrices, R acts through all of G0's, and Howell rows
        are canonical.
        """
        def build():
            if k == 0:
                return TopQuotient(self, 0, self.group(), self.lattice(), self.chain())
            R = extensions.split_table(self.quotient(k * self.period()).module)
            chain = self.chain().pullback(R, np.arange(R.order) // (R.order // self.group().order))
            return TopQuotient(self, k, R, chain.lattice, chain)
        return self.derived(("stage", k), build)

    def top(self) -> "TopQuotient":
        return self.stage(self.top_offset // self.period())

    def validate(self):
        """Re-verify every declared structural property; raises on failure."""
        T = self.lattice()  # validates the action matrices
        chain = self.chain()
        ok, steps = modules.is_uniserial(chain, min(self.depth, chain.depth))
        if not ok:
            raise ScenarioError("action is not uniserial: step indices %s" % steps)
        d = self.period()
        j = self.top_offset
        if j < 1 or j % d:
            raise ScenarioError("top_offset must be a positive multiple of the period")
        scale = self.p ** (j // d)
        ident = np.eye(self.rank, dtype=np.int64)
        if not linalg.span_equal((scale * ident) % T.q, chain.bases[j], self.p, T.N):
            raise ScenarioError("chain term %d is not the %d-fold scaled lattice" % (j, scale))
        return self


def _require(data: dict, fieldname: str):
    if fieldname not in data:
        raise ScenarioError("scenario file is missing the field %r" % fieldname)
    return data[fieldname]


def checked_field(fieldname: str, build, source: str = "scenario"):
    """build(), with a malformed field of a scenario or cocycle file reported
    as a ScenarioError that names it."""
    try:
        return build()
    except CoclassError:
        raise
    except (TypeError, ValueError, OverflowError, AttributeError, KeyError) as exc:
        raise ScenarioError("%s field %r is malformed: %s" % (source, fieldname, exc)) from None


def checked_integers(fieldname: str, value, source: str = "scenario"):
    """value, once each of its leaves (in lists nested to any depth) is an
    int; a float, a string or a bool, which int() and NumPy would truncate
    or parse, is a ScenarioError that names the field."""
    leaves = [value]
    while leaves:
        x = leaves.pop()
        if isinstance(x, list):
            leaves.extend(x)
        elif isinstance(x, bool) or not isinstance(x, int):
            raise ScenarioError("%s field %r is malformed: %r is not an integer"
                                % (source, fieldname, x))
    return value


INT_FIELDS = ("p", "rank", "precision", "depth", "top_offset", "pro_coclass")


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases, exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n % 2 == 0 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in bases)


def scenario_from_dict(data: dict) -> Scenario:
    for f in REQUIRED_FIELDS:
        _require(data, f)
    ints = {f: checked_field(f, lambda: int(checked_integers(f, data[f]))) for f in INT_FIELDS}
    p, precision = ints["p"], ints["precision"]
    if not _is_prime(p):
        raise ScenarioError("scenario field 'p' is %d, not a prime" % p)
    # q = p^precision is the working modulus: every entry lies in [0, q) and is
    # held in int64, q <= 2^62 so that a sum of two entries fits too, and
    # linalg forms every product, in int64 while it cannot overflow and in
    # Python ints past that; the cohomology recheck at precision + 2 passes
    # this check too
    if precision < 1 or precision >= 63 or p**precision > 2**62:
        raise ScenarioError("scenario field 'precision' is %d; it must be at least 1, "
                            "with p^precision at most 2^62" % precision)
    rank = ints["rank"]
    matrices = checked_field("action", lambda: [
        np.asarray(m, dtype=np.int64) for m in checked_integers("action", data["action"])])
    for i, arr in enumerate(matrices):
        if arr.shape != (rank, rank):
            raise ScenarioError("action matrix %d is not %d x %d" % (i, rank, rank))
    group = data["group"]
    keys = ("table", "generators")
    # the numbers of a group spec; a presentation holds strings
    checked_integers("group", [group.get(k) for k in keys if group.get(k) is not None]
                     if isinstance(group, dict) else group)
    # list() would split a string given for a list of words into its letters
    pres = group.get("presentation") if isinstance(group, dict) else None
    if isinstance(pres, dict):
        for f in ("generators", "relators"):
            words = pres.get(f)
            if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
                raise ScenarioError("scenario field 'group' is malformed: presentation %r is %r, "
                                    "not a list of strings" % (f, words))
    scn = Scenario(name=str(data["name"]), group_spec=group,
                   action=[arr.tolist() for arr in matrices], **ints)
    if len(matrices) != len(checked_field("group", scn.group).generators):
        raise ScenarioError("expected one action matrix per group generator")
    return scn.validate()


BUILTIN_SCENARIOS: dict[str, dict] = {
    "dihedral_mainline": {
        "name": "dihedral_mainline",
        "p": 2,
        "rank": 1,
        "precision": 14,
        "depth": 10,
        "group": {"presentation": {"generators": ["a"], "relators": ["a^2"]}},
        "action": [[[-1]]],
        "top_offset": 1,
        "pro_coclass": 1,
    },
    "d8_gaussian": {
        "name": "d8_gaussian",
        "p": 2,
        "rank": 2,
        "precision": 21,
        "depth": 9,
        "group": {"presentation": {"generators": ["a", "b"],
                                   "relators": ["a^2", "b^4", "a^-1 b a b"]}},
        "action": [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]],
        "top_offset": 2,
        "pro_coclass": 3,
    },
}


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in a scenario or cocycle file; a file that cannot be
    read, decoded or parsed, or holds no object, is a ScenarioError."""
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or not JSON
        raise ScenarioError("cannot read %s file %r: %s" % (what, path, exc)) from None
    if not isinstance(data, dict):
        raise ScenarioError("%s file must contain a JSON object" % what)
    return data


def scenario_data(source) -> dict:
    """The unvalidated fields of a built-in name, a JSON file path, or a dict."""
    if isinstance(source, dict):
        return source
    name = str(source)
    if name in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name]
    return read_json_object(name, "scenario")


def load_scenario(source) -> Scenario:
    """Scenario from a built-in name, a JSON file path, or a parsed dict."""
    return scenario_from_dict(scenario_data(source))


# ---------------------------------------------------------------------------
# the finite top quotient R = G0 x (T / T_j) and its mainline cocycles


@dataclass(eq=False)
class TopQuotient(Owner):
    """The semidirect product's quotient by 1 x T_j, j = k d, acting on the
    rescaled fiber lattice; `Scenario.stage` builds it.  Extensions of its
    chain quotients by mainline-compatible cocycles recover the deeper
    finite quotients and their siblings.  It owns the branch data built on
    it (see `coclass_tree`).
    """

    scenario: Scenario
    k: int  # the fiber lattice is T_j rescaled by p^-k
    group: GroupTable  # order |G0| * [T : T_j], element index g * [T : T_j] + a
    lattice: LatticeModule  # the action factors through G0
    chain: CentralChain

    @property
    def period(self) -> int:
        return self.scenario.period()

    @property
    def l(self) -> int:
        """The fiber of the quotient at level n has order p^n starting depth l."""
        return self.scenario.l

    def fiber_size(self) -> int:
        return self.group.order // self.scenario.group().order

    def quotient(self, n: int) -> QuotientModule:
        return self.chain.quotient(n)

    def mainline_cocycle(self, n: int) -> np.ndarray:
        """Hatted 2-cocycle of the level-n mainline quotient.

        The section lifts (g, a) to (g, a-hat) with a-hat the canonical
        ambient representative; the factor set lands in T_j, read in the
        rescaled coordinates of the fiber lattice.
        """
        if n < 1:
            raise ScenarioError("the mainline cocycle needs a level of at least 1")
        scn = self.scenario
        T = self.lattice
        Q = self.quotient(n)
        A = Q.module
        na = self.fiber_size()
        Qj = scn.quotient(self.k * self.period)
        scale = scn.p ** self.k
        moduli = [int(m) for m in Qj.module.coord_moduli()]
        amb = Qj.structure.element(groups.all_coord_rows(moduli))  # lift per fiber index
        x, y = self.group.bar_index(2).tuples.T
        # the factor set of (g, u)(h, v) is u.h + v minus its canonical representative
        w = (linalg.dot_mod(amb[x % na][:, None], T.act[y], T.q, T.q)[:, 0] + amb[y % na]) % T.q
        value = (w - Qj.reduce(w)) % T.q
        if np.any(value % scale):
            raise ScenarioError("mainline factor set left the fiber lattice")
        row = Q.hat_of_ambient(value // scale).reshape(-1)
        if not cohomology.is_cocycle(A, 2, row):
            raise ScenarioError("mainline factor set is not a cocycle")
        return row


# ---------------------------------------------------------------------------
# lower central series of the finite semidirect quotients


def check_lower_central_series(scn: Scenario, max_order: int) -> dict:
    """Identify the lower central terms of the finite semidirect quotients.

    For each quotient G0 x (T / T_m) up to max_order, checks that with the
    convention gamma_1 = G the (1+j)-th lower central term equals the image
    of 1 x T_j for every j from top_offset up to m, and that the coclass of
    the quotients stabilizes at the declared value.  The quotient is the
    extension of A = T / T_m by the zero factor set, so its series is read
    in coordinates (`extensions.lower_central_series`), with no table: a
    term is the image of T_j when it lies over the identity of G0 and meets
    A in the span of T_j.
    """
    G0 = scn.group()
    chain = scn.chain()
    failures: list[str] = []
    identified: list[dict] = []
    coclasses: list[tuple[int, int]] = []  # (chain index m, coclass of the quotient)
    orders: list[int] = []
    m = 1
    while m <= chain.depth and G0.order * scn.p ** chain.index_exponents[m] <= max_order:
        Qm = scn.quotient(m)
        A = Qm.module
        split = np.zeros((G0.order, G0.order, A.rank), dtype=np.int64)
        series = extensions.lower_central_series(A, split)
        sizes = [len(image) * A.p ** K.order_exp() for image, K, _ in series]
        orders.append(sizes[0])
        for j in range(scn.top_offset, m + 1):
            expected = linalg.howell(Qm.hat_of_ambient(chain.bases[j]), A.p, A.E)
            li = 1 + j
            i = min(li, len(series)) - 1  # past the class, the trivial last term
            image, K, _ = series[i]
            if len(image) == 1 and K.same_span(expected):
                identified.append({"chain_index": m, "lcs_index": li, "size": sizes[i]})
            else:
                failures.append(
                    "chain index %d: lcs term %d has size %d, expected the "
                    "image of the depth-%d sublattice (size %d)"
                    % (m, li, sizes[i], j, A.p ** expected.order_exp()))
        coclasses.append((m, groups.order_coclass(sizes[0], len(series) - 1)))
        m += 1
    last_m = m - 1
    if last_m < scn.top_offset + 1:
        failures.append("no quotient deep enough to test the identification")
    stabilized = [c for mm, c in coclasses if mm >= scn.top_offset + scn.period()]
    limit = stabilized[-1] if stabilized else -1
    if limit != scn.pro_coclass:
        failures.append("quotient coclass %d does not stabilize at the declared %d"
                        % (limit, scn.pro_coclass))
    elif any(c != limit for c in stabilized):
        failures.append("quotient coclass has not stabilized: %s" % coclasses)
    return {"scenario": scn.name, "max_chain_index": last_m, "quotient_orders": orders,
            "identified_terms": identified,
            "coclasses": [{"chain_index": mm, "coclass": c} for mm, c in coclasses],
            "limit_coclass": limit, "ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# the summand-instability scan


def _summand_classes(level: cohomology.SplitLevel) -> list[tuple[tuple, np.ndarray]]:
    """(coords, representative cocycle row) for every class in the lattice
    summand of H^2, in lexicographic coordinate order."""
    H = level.H
    q = H.module.q
    mods = H.structure.moduli()
    # coordinates are additive, so each sum carries its own
    gens = [(row, H.coords(row)) for row in level.theta_hat]
    zero = (np.zeros(H.cocycles.shape[1], dtype=np.int64), np.zeros(len(mods), dtype=np.int64))
    seen = groups.closure([zero], gens, lambda x, g: ((x[0] + g[0]) % q, (x[1] + g[1]) % mods),
                          key=lambda x: tuple(int(c) for c in x[1]))
    return [(k, seen[k][0]) for k in sorted(seen)]


def _h3_component(level: cohomology.SplitLevel, row) -> list[int]:
    """Complement coefficients of a cocycle, reduced to their class moduli."""
    _, c = level.decompose(row)
    p = level.Q.lattice.p
    return [int(ci % p**a) for ci, a in zip(c, level.frame.K_divisor_exps)]


# the rescaling stages and chain levels the summand scan visits, and the
# largest group order it scans
SCAN_STAGES = (0, 1, 2)
SCAN_LEVELS = range(1, 7)
SCAN_GROUP_CAP = 8


def summand_instability_witness(scn: Scenario) -> dict:
    """Scan for an invertible module endomorphism whose compatible-pair
    action moves some class of the lattice summand of H^2 out of the
    summand, i.e. gives it a nonzero complement component.

    Scan order is deterministic: ascending rescaling stage k, then level n,
    then lexicographic endomorphism coordinates (the plain form before the
    one-plus form), then lexicographic class.  Alongside the scan, every
    invertible endomorphism lifted from the lattice is checked to preserve
    the summand.

    Each level is split through the frame of its residue class modulo the
    period (`cohomology.level_frame`); a level that frame cannot serve is
    skipped for the reason it gives.
    """
    scanned: list[dict] = []
    skipped: list[dict] = []
    witness = None
    lifted_ok = True
    for k in SCAN_STAGES:
        order = scn.stage_order(k)
        if order > SCAN_GROUP_CAP:
            skipped.append({"k": k, "group_order": order,
                            "reason": "group order exceeds the scan cap %d" % SCAN_GROUP_CAP})
            continue
        stage = scn.stage(k)
        chain_k = stage.chain
        for n in SCAN_LEVELS:
            if n > chain_k.depth - 1:
                break
            try:
                cohomology.level_frame(chain_k, n)
            except cohomology.CohomologyError as exc:
                skipped.append({"k": k, "n": n, "reason": str(exc)})
                continue
            level = cohomology.level_split(chain_k, n)
            H = level.H
            Q = level.Q
            A = Q.module
            member = _summand_membership_solver(level, H)
            classes = _summand_classes(level)
            lifted_ok = lifted_ok and _lifted_endos_stable(stage.lattice, Q, H, member, classes)
            scanned.append({"k": k, "n": n, "summand_classes": len(classes),
                            "h2_order": H.order})
            if witness is None:
                witness = _scan_level(k, n, level, H, A, member, classes)
            if witness is not None:
                break
        if witness is not None:
            break
    return {"scenario": scn.name, "found": witness is not None, "witness": witness,
            "lifted_endomorphisms_stable": lifted_ok, "scanned": scanned, "skipped": skipped}


def _summand_membership_solver(level: cohomology.SplitLevel,
                               H: cohomology.CohomologyGroup) -> linalg.Howell:
    stack = [x for x in (level.theta_hat, H.boundaries) if x.shape[0]]
    rows = np.vstack(stack) if stack else np.zeros((0, H.cocycles.shape[1]),
                                                   dtype=np.int64)
    return linalg.howell(rows, H.module.p, H.module.E)


def _scan_level(k, n, level, H, A, member, classes):
    mats = A.hom_to(A).matrices()
    # the two forms of each endomorphism, interleaved in scan order
    forms = np.stack([mats, (np.eye(A.rank, dtype=np.int64) + mats) % A.q], axis=1)
    hats = A.hat_matrix(forms.reshape(-1, A.rank, A.rank))
    autos = np.flatnonzero(pairs.automorphism_mask(A, hats))
    hit = _first_move(H, member, classes, hats[autos])
    if hit is None:
        return None
    s, c = hit
    eps_hat = hats[autos[s]]
    cls, row = classes[c]
    image = pairs.act_on_cochains(H, np.arange(A.group.order), eps_hat[None], row[None])[0, 0]
    return {
        "k": k, "n": n, "form": ("eps", "one_plus_eps")[autos[s] % 2],
        "eps_hat": eps_hat.tolist(), "class_coords": cls,
        "image_coords": H.coords(image).tolist(), "h3_component": _h3_component(level, image),
    }


# entries of the largest stack of moved cochains `_first_move` builds at once
SCAN_ENTRIES = 1 << 16


def _first_move(H, member, classes, eps_hats) -> tuple[int, int] | None:
    """(s, c) of the first automorphism eps_hats[s], in stack order, that
    moves class c out of the summand, or None when every class stays."""
    rows = np.array([row for _, row in classes])
    step = max(1, SCAN_ENTRIES // rows.size)
    beta = np.arange(H.module.group.order)
    for start in range(0, len(eps_hats), step):
        images = pairs.act_on_cochains(H, beta, eps_hats[start:start + step], rows)
        moved = np.any(member.reduce(images), axis=-1)
        if moved.any():
            s, c = np.unravel_index(np.argmax(moved), moved.shape)
            return start + int(s), int(c)
    return None


def _lifted_endos_stable(Tk, Q, H, member, classes) -> bool:
    """Every invertible endomorphism reduced from the lattice must keep the
    summand inside itself."""
    A = Q.module
    Phi = modules.lattice_endomorphisms(Tk, Tk.p * Tk.p)
    hats = A.hat_matrix(modules.endo_to_quotient(Q, Phi))
    return _first_move(H, member, classes, hats[pairs.automorphism_mask(A, hats)]) is None


# ---------------------------------------------------------------------------
# the two-level orbit correspondence report


def orbit_correspondence_report(scn: Scenario, n: int | None = None) -> dict:
    """Certify the orbit bijection between levels n and n + period."""
    bounds = scn.bounds()
    d = scn.period()
    if n is None:
        n = bounds.least_qualifying()
    if n < 0:
        raise ScenarioError("chain level %d is negative" % n)
    if not bounds.qualifies(n):
        reason = ("level %d violates n >= v*d = %d*%d or n >= b*d = %d*%d"
                  % (n, bounds.v, d, bounds.b_exp, d))
        return {"scenario": scn.name, "level": n, "qualified": False, "ok": False,
                "reason": reason}
    result = pairs.orbit_correspondence(scn.lattice(), scn.chain(), n, d)
    report = {"scenario": scn.name, "level": n, "qualified": True, "ok": result.ok,
              "equivariant": result.equivariant, "orbit_sizes": sorted(result.orbits_n.sizes),
              "orbit_sizes_next": sorted(result.orbits_nd.sizes),
              "bijection": result.bijection}
    if result.witness:
        report["witness"] = result.witness
    return report
