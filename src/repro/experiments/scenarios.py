"""Verified experiment scenarios.

A :class:`Scenario` bundles everything one benchmark run needs: the
dynamic graph, the token instance, and the model parameters the cost
formulas consume.  Builders construct the scenario *and verify its model
membership* with the Definition 2–8 / T-interval checkers, so a benchmark
can never silently run on an instance outside the algorithm's
correctness envelope (set ``verify=False`` only in large sweeps after the
generator itself is property-tested).

**Scenario families.**  Every scenario carries a ``family`` axis that
specs declare compatibility with (see
:attr:`repro.registry.AlgorithmSpec.families`):

* ``"benign"`` — reliable channels, no churn (every builder's default);
* ``"adversarial"`` — :func:`haeupler_kuhn_scenario`, the materialised
  Haeupler–Kuhn lower-bound trace;
* ``"lossy"`` — :func:`lossy_scenario`, i.i.d. or bursty message loss
  layered on any base scenario via a link-model spec;
* ``"churn"`` — :func:`churn_scenario`, crash-stop node departures.

**The scenario catalogue.**  :data:`SCENARIO_KINDS` is the one place
that pairs each scenario kind with its builder and the checker that
certifies it (its model class: Theorem 1's (k+αL, L)-HiNets, Theorems
2–4's (1, L)-HiNets, KLO's T-interval connectivity).
:func:`default_kind` picks the kind a spec's ``model_class`` assumes
and :func:`scenario_for` builds one kind from the CLI's size knobs; the
CLI, the bench fleet, ``validate-model`` and the test suites all build
through them.

The fault families put a declarative link-model spec dict in
``Scenario.link`` (see :func:`repro.sim.linkmodel.link_from_spec`);
the runner threads it to every engine tier, which apply it through the
same counter-based RNG stream — results are bit-identical across tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping, Optional

from ..core.bounds import (
    algorithm1_phases,
    algorithm2_rounds_1interval,
    klo_interval_phases,
    required_T,
)
from ..graphs.adversary import HaeuplerKuhnAdversary, materialize_lower_bound_trace
from ..graphs.generators.hinet import HiNetParams, generate_hinet
from ..graphs.generators.interval import t_interval_trace
from ..graphs.generators.worstcase import shuffled_path_trace
from ..graphs.properties import (
    is_hinet,
    is_T_interval_connected,
    max_interval_connectivity,
)
from ..graphs.trace import GraphTrace
from ..sim.linkmodel import BurstyLoss, CrashChurn, IidLoss
from ..sim.messages import initial_assignment
from ..sim.rng import SeedLike

__all__ = [
    "SCENARIO_KINDS",
    "Scenario",
    "churn_scenario",
    "default_kind",
    "dhop_scenario",
    "haeupler_kuhn_scenario",
    "hinet_interval_scenario",
    "hinet_one_scenario",
    "klo_interval_scenario",
    "lossy_scenario",
    "one_interval_scenario",
    "scenario_for",
]


class _ReadOnlyDict(dict):
    """A ``dict`` that refuses every in-place change.

    A ``dict`` subclass rather than :class:`types.MappingProxyType`:
    it pickles (sweeps send scenarios to process-pool workers),
    ``json.dumps`` encodes it, and it compares equal to a plain dict.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            f"{type(self).__name__} is read-only: derive a new scenario "
            "with dataclasses.replace"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


class _ReadOnlyList(list):
    """A ``list`` that refuses every in-place change (see :class:`_ReadOnlyDict`)."""

    __slots__ = ()

    _read_only = _ReadOnlyDict._read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


def _frozen(value):
    """``value`` with every nested dict and list made read-only (copied)."""
    if isinstance(value, dict):
        return _ReadOnlyDict((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, list):
        return _ReadOnlyList(_frozen(item) for item in value)
    return value


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment instance.

    Immutable once built: assigning an attribute raises
    :class:`dataclasses.FrozenInstanceError`, and ``initial``, ``params``
    and ``link`` are read-only copies of what the constructor was given
    (a ``dict`` subclass whose mutators raise ``TypeError``; nested
    dicts and lists in ``params`` and ``link`` likewise).  Derive a
    variant with :func:`dataclasses.replace`, as :func:`lossy_scenario`
    and :func:`churn_scenario` do.

    Because a built scenario cannot change, values derived from its
    content are computed once per instance: the result cache memoizes
    the scenario's fingerprint in the private ``_memo`` dict (see
    :mod:`repro.experiments.cache`).  The memo is not a field:
    ``dataclasses.replace`` and a pickle round trip start with an empty
    one, so a variant never inherits a stale value.

    Attributes
    ----------
    name:
        Human-readable label for result tables.
    trace:
        The dynamic graph (clustered for HiNet scenarios; the flat
        baselines simply ignore the role annotations, so both algorithm
        families can run on the *same* trace — the fairest comparison).
    k:
        Token count.
    initial:
        Node → initially-known tokens (stored as frozensets).
    params:
        Model parameters: T, L, alpha, theta, and empirical n_m / n_r
        where available.  Consumed by the cost model and the runners.
    family:
        Scenario-family axis: ``"benign"`` (default), ``"adversarial"``,
        ``"lossy"`` or ``"churn"``.  Specs declare which families they
        support (:attr:`repro.registry.AlgorithmSpec.families`).
    link:
        Declarative link-model spec dict
        (:func:`repro.sim.linkmodel.link_from_spec`), or ``None`` for
        reliable channels.  Part of the cache fingerprint.
    """

    name: str
    trace: GraphTrace
    k: int
    initial: Mapping[int, FrozenSet[int]]
    params: Mapping[str, object] = field(default_factory=dict)
    family: str = "benign"
    link: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        initial = self.initial
        if not isinstance(initial, _ReadOnlyDict):  # replace() passes it on
            initial = _ReadOnlyDict(
                (v, frozenset(toks)) for v, toks in initial.items()
            )
        set_field = object.__setattr__  # the sanctioned frozen-init path
        set_field(self, "initial", initial)
        set_field(self, "params", _frozen(dict(self.params)))
        if self.link is not None:
            set_field(self, "link", _frozen(dict(self.link)))
        set_field(self, "_memo", {})

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_memo"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, _memo={})

    @property
    def n(self) -> int:
        """Node count."""
        return self.trace.n


def hinet_interval_scenario(
    n0: int = 100,
    theta: int = 30,
    k: int = 8,
    alpha: int = 5,
    L: int = 2,
    num_heads: Optional[int] = None,
    reaffiliation_p: float = 0.1,
    head_churn: int = 0,
    churn_p: float = 0.02,
    assignment: str = "spread",
    seed: SeedLike = None,
    verify: bool = True,
) -> Scenario:
    """A (k+αL, L)-HiNet instance sized for Algorithm 1's Theorem 1 bound.

    Phase length is ``T = k + α·L`` and the horizon covers
    ``⌈θ/α⌉ + 1`` phases — exactly the paper's correctness envelope.
    Defaults reproduce Table 3's parameterisation.
    """
    T = required_T(k, alpha, L)
    M = algorithm1_phases(theta, alpha)
    heads = theta if num_heads is None else num_heads
    params = HiNetParams(
        n=n0,
        theta=theta,
        num_heads=heads,
        T=T,
        phases=M,
        L=L,
        reaffiliation_p=reaffiliation_p,
        head_churn=head_churn,
        churn_p=churn_p,
    )
    scen = generate_hinet(params, seed=seed)
    scenario = Scenario(
        name=f"({T},{L})-HiNet n={n0} theta={theta} k={k}",
        trace=scen.trace,
        k=k,
        initial=initial_assignment(k, n0, mode=assignment),
        params={
            "T": T,
            "L": L,
            "alpha": alpha,
            "theta": theta,
            "phases": M,
            "num_heads": heads,
            "nm": scen.mean_members,
            "nr": scen.empirical_nr(),
            "generator": scen,
        },
    )
    if verify:
        _certify_hinet_interval(scenario)
    return scenario


def hinet_one_scenario(
    n0: int = 100,
    theta: int = 30,
    k: int = 8,
    L: int = 2,
    num_heads: Optional[int] = None,
    reaffiliation_p: float = 0.3,
    head_churn: int = 2,
    churn_p: float = 0.02,
    rotate_gateways: bool = False,
    rounds: Optional[int] = None,
    assignment: str = "spread",
    seed: SeedLike = None,
    verify: bool = True,
) -> Scenario:
    """A (1, L)-HiNet instance for Algorithm 2: hierarchy may change every round.

    The horizon defaults to Theorem 2's ``n − 1`` rounds.  Higher default
    re-affiliation and head churn reflect the paper's "dynamics is higher"
    assumption for this regime.  Note ``head_churn`` only has an effect
    when ``num_heads < theta`` (there must be inactive pool members to
    rotate in).
    """
    M = algorithm2_rounds_1interval(n0) if rounds is None else rounds
    heads = theta if num_heads is None else num_heads
    params = HiNetParams(
        n=n0,
        theta=theta,
        num_heads=heads,
        T=1,
        phases=M,
        L=L,
        reaffiliation_p=reaffiliation_p,
        head_churn=head_churn,
        churn_p=churn_p,
        rotate_gateways=rotate_gateways,
    )
    scen = generate_hinet(params, seed=seed)
    scenario = Scenario(
        name=f"(1,{L})-HiNet n={n0} theta={theta} k={k}",
        trace=scen.trace,
        k=k,
        initial=initial_assignment(k, n0, mode=assignment),
        params={
            "T": 1,
            "L": L,
            "theta": theta,
            "rounds": M,
            "num_heads": heads,
            "nm": scen.mean_members,
            "nr": scen.empirical_nr(),
            "generator": scen,
        },
    )
    if verify:
        _certify_hinet_one(scenario)
    return scenario


def dhop_scenario(
    n0: int = 40,
    num_heads: int = 5,
    k: int = 4,
    d: int = 2,
    L: int = 2,
    T: Optional[int] = None,
    phases: Optional[int] = None,
    reaffiliation_p: float = 0.1,
    churn_p: float = 0.0,
    assignment: str = "spread",
    seed: SeedLike = None,
) -> Scenario:
    """A verified d-hop hierarchical instance for the multihop extension.

    Defaults size the phases for the Algorithm-1-style d-hop variant:
    ``T = k + 2·(L + 2d)`` (uploads/downloads pipeline through depth-d
    relay trees) over ``num_heads + 2`` phases; the plain d-hop
    dissemination spec simply uses the whole horizon.  The generated
    :class:`~repro.multihop.scenario.DHopScenario` rides along in
    ``params["dhop"]`` — the registered d-hop specs need its per-round
    parent/depth lookups.
    """
    from ..multihop.scenario import DHopParams, generate_dhop

    T = (k + 2 * (L + 2 * d)) if T is None else T
    phases = (num_heads + 2) if phases is None else phases
    params = DHopParams(
        n=n0,
        num_heads=num_heads,
        T=T,
        phases=phases,
        d=d,
        L=L,
        reaffiliation_p=reaffiliation_p,
        churn_p=churn_p,
    )
    scen = generate_dhop(params, seed=seed)  # validates every phase itself
    return Scenario(
        name=f"d-hop HiNet n={n0} d={d} heads={num_heads} k={k}",
        trace=scen.trace,
        k=k,
        initial=initial_assignment(k, n0, mode=assignment),
        params={
            "T": T,
            "L": L,
            "d": d,
            "phases": phases,
            "num_heads": num_heads,
            "dhop": scen,
        },
    )


def klo_interval_scenario(
    n0: int = 100,
    k: int = 8,
    alpha: int = 5,
    L: int = 2,
    churn_p: float = 0.05,
    assignment: str = "spread",
    seed: SeedLike = None,
    verify: bool = True,
) -> Scenario:
    """A flat (k+αL)-interval connected instance sized for the KLO baseline.

    Horizon: ``⌈n₀/(αL)⌉`` phases of ``T = k + αL`` rounds, the paper's
    Table 2 accounting for reference [7].
    """
    T = required_T(k, alpha, L)
    M = klo_interval_phases(n0, alpha, L)
    trace = t_interval_trace(n0, T, rounds=T * M, churn_p=churn_p, seed=seed)
    scenario = Scenario(
        name=f"{T}-interval connected n={n0} k={k}",
        trace=trace,
        k=k,
        initial=initial_assignment(k, n0, mode=assignment),
        params={"T": T, "L": L, "alpha": alpha, "phases": M},
    )
    if verify:
        _certify_klo_interval(scenario)
    return scenario


def one_interval_scenario(
    n0: int = 100,
    k: int = 8,
    rounds: Optional[int] = None,
    assignment: str = "spread",
    seed: SeedLike = None,
    verify: bool = True,
) -> Scenario:
    """A flat worst-case 1-interval connected instance (fresh random path
    each round) for the 1-interval KLO baseline and the flooding family."""
    M = algorithm2_rounds_1interval(n0) if rounds is None else rounds
    trace = shuffled_path_trace(n0, rounds=M, seed=seed)
    scenario = Scenario(
        name=f"1-interval worst case n={n0} k={k}",
        trace=trace,
        k=k,
        initial=initial_assignment(k, n0, mode=assignment),
        params={"T": 1, "rounds": M},
    )
    if verify:
        _certify_one_interval(scenario)
    return scenario


def haeupler_kuhn_scenario(
    n0: int = 60,
    k: int = 6,
    rounds: Optional[int] = None,
    assignment: str = "spread",
    seed: SeedLike = 0,
    verify: bool = True,
) -> Scenario:
    """The Haeupler–Kuhn lower-bound adversary, frozen to a static trace.

    The adaptive token-aware adversary
    (:class:`~repro.graphs.adversary.HaeuplerKuhnAdversary`) is played
    against a flooding-knowledge oracle and the committed rounds become an
    oblivious 1-interval-connected path trace — worst-case-shaped for
    every one-token-per-round protocol, runnable on both engine
    tiers.  ``verify=True`` certifies the trace with
    :func:`~repro.graphs.properties.max_interval_connectivity` (one
    longest-window pass over the trace, whatever ``T``) and stores the
    certified value in ``params["certified_T"]`` before the scenario is
    returned.
    """
    M = algorithm2_rounds_1interval(n0) if rounds is None else rounds
    initial = initial_assignment(k, n0, mode=assignment)
    trace = materialize_lower_bound_trace(
        n0, initial, M, adversary=HaeuplerKuhnAdversary(n0, seed=seed)
    )
    scenario = Scenario(
        name=f"haeupler-kuhn adversary n={n0} k={k}",
        trace=trace,
        k=k,
        initial=initial,
        params={"T": 1, "alpha": 1, "L": 1, "rounds": M},
        family="adversarial",
    )
    if verify:
        scenario = _certified(scenario, _certify_adversarial)
    return scenario


def lossy_scenario(
    base: Scenario,
    p: float,
    seed: SeedLike = 0,
    burst_len: Optional[int] = None,
    burst_p: float = 0.3,
    p_good: float = 0.0,
) -> Scenario:
    """Layer message loss on ``base``: i.i.d., or bursty when ``burst_len``.

    The returned scenario shares the base's trace/instance/params and
    carries the loss as a declarative link spec — one ~50-line LinkModel
    does the rest on every engine tier.  ``seed`` feeds the counter-based
    link RNG stream; two runs with the same seed are bit-identical.
    """
    seed_int = 0 if seed is None else int(seed)
    if burst_len is None:
        model = IidLoss(p, seed=seed_int)
        label = f"{base.name} + iid loss p={p}"
    else:
        model = BurstyLoss(
            p, burst_len=burst_len, burst_p=burst_p, p_good=p_good,
            seed=seed_int,
        )
        label = f"{base.name} + bursty loss p={p} burst={burst_len}"
    return replace(base, name=label, family="lossy", link=model.spec())


def churn_scenario(
    base: Scenario,
    rate: float,
    seed: SeedLike = 0,
) -> Scenario:
    """Layer crash-stop churn on ``base``: each round every live node
    crashes independently with probability ``rate`` (token set wiped, never
    sends or absorbs again).  Coverage accounting, monitors, recorder
    deltas and completion all become survivor-aware automatically."""
    seed_int = 0 if seed is None else int(seed)
    model = CrashChurn(rate, seed=seed_int)
    return replace(
        base,
        name=f"{base.name} + churn rate={rate}",
        family="churn",
        link=model.spec(),
    )


# -- the scenario catalogue ---------------------------------------------------
#
# Certifiers take a built scenario and raise AssertionError when its trace
# is outside the kind's model class.  They never write to the scenario:
# ``_certify_adversarial`` returns the ``certified_T`` its certificate
# adds, and :func:`_certified` derives the certified scenario.

def _certified(scenario: Scenario, certify) -> Scenario:
    """``scenario`` after ``certify``, with any params it certified added.

    ``scenario_for(kind, verify=False)`` followed by ``_certified(scenario,
    SCENARIO_KINDS[kind][2])`` ends with the same params, and so the same
    cache fingerprint, as ``scenario_for(kind, verify=True)``.
    """
    extra = certify(scenario)
    if not extra:
        return scenario
    return replace(scenario, params={**scenario.params, **extra})


def _certify_hinet_interval(scenario: Scenario) -> None:
    params = scenario.params
    if not is_hinet(scenario.trace, params["T"], params["L"]):
        raise AssertionError("generated trace failed (T, L)-HiNet verification")


def _certify_hinet_one(scenario: Scenario) -> None:
    if not is_hinet(scenario.trace, 1, scenario.params["L"]):
        raise AssertionError("generated trace failed (1, L)-HiNet verification")
    _certify_one_interval(scenario)


def _certify_klo_interval(scenario: Scenario) -> None:
    if not is_T_interval_connected(scenario.trace, scenario.params["T"],
                                   windows="blocks"):
        raise AssertionError("generated trace failed T-interval verification")


def _certify_one_interval(scenario: Scenario) -> None:
    if not is_T_interval_connected(scenario.trace, 1):
        raise AssertionError("generated trace is not 1-interval connected")


def _certify_adversarial(scenario: Scenario) -> Dict[str, object]:
    """Certify with :func:`max_interval_connectivity`; returns ``certified_T``."""
    certified_T = max_interval_connectivity(scenario.trace)
    if certified_T < 1:
        raise AssertionError("adversarial trace is not even 1-interval connected")
    return {"certified_T": certified_T}


#: kind → (builder, the :func:`scenario_for` keywords it takes besides
#: ``n0``/``k``/``seed``, certifier), in the CLI's ``--scenario`` order.
#: The d-hop generator validates every phase itself, so ``dhop`` has no
#: separate certifier.
SCENARIO_KINDS = {
    "hinet-interval": (hinet_interval_scenario,
                       ("theta", "alpha", "L", "verify"),
                       _certify_hinet_interval),
    "hinet-one": (hinet_one_scenario, ("theta", "L", "verify"),
                  _certify_hinet_one),
    "klo-interval": (klo_interval_scenario, ("alpha", "L", "verify"),
                     _certify_klo_interval),
    "one-interval": (one_interval_scenario, ("verify",),
                     _certify_one_interval),
    "dhop": (dhop_scenario, ("L",), None),
    "adversarial": (haeupler_kuhn_scenario, ("rounds", "verify"),
                    _certify_adversarial),
}


def default_kind(spec) -> str:
    """The catalogue kind whose class a spec's ``model_class`` assumes.

    Multihop specs get a d-hop hierarchy, ``(T,L)``-HiNet specs a
    stable-interval hierarchy, ``(1,L)`` specs its 1-interval variant,
    the KLO comparator a flat T-interval instance, and everything else a
    flat 1-interval worst case.
    """
    if spec.family == "multihop":
        return "dhop"
    for prefix, kind in (("(T", "hinet-interval"), ("(1", "hinet-one"),
                         ("T-interval", "klo-interval")):
        if spec.model_class.startswith(prefix):
            return kind
    return "one-interval"


def scenario_for(
    kind: str,
    *,
    n0: int,
    k: int,
    seed: SeedLike,
    theta: Optional[int] = None,
    alpha: int = 3,
    L: int = 2,
    rounds: Optional[int] = None,
    verify: bool = True,
) -> Scenario:
    """Build one :data:`SCENARIO_KINDS` kind from the CLI's size knobs.

    Each builder receives only the keywords its catalogue entry names:
    ``theta`` (default ``max(0.3·n0, alpha)``) reaches the HiNet builders,
    ``rounds`` only the adversarial one, and ``verify=True`` runs the
    kind's certifier.  Module-level and keyword-driven, so it pickles as
    a replication cell's scenario builder.
    """
    builder, keywords, _certify = SCENARIO_KINDS[kind]
    options = {
        "theta": max(n0 * 3 // 10, alpha) if theta is None else theta,
        "alpha": alpha,
        "L": L,
        "rounds": rounds,
        "verify": verify,
    }
    return builder(n0=n0, k=k, seed=seed,
                   **{key: options[key] for key in keywords})
