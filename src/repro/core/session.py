"""Characterization session: one module on the test bench.

A :class:`CharacterizationSession` bundles a simulated module, the DRAM
Bender host, the temperature controller and the experiment scale, and
exposes HC_first measurement primitives for every access pattern in the
paper.  Experiments (:mod:`repro.experiments`) are thin sweeps over these
primitives.

Every ``measure_*`` primitive has a ``measure_many_*`` batched variant
that accepts the whole victim list of a sweep at once and advances all
of the HC_first searches together through
:func:`repro.core.probe_batch.run_batched_searches`.  The batched
variants are bit-identical to looping the scalar primitive (enforced by
``tests/core/test_probe_batch.py``); they exist purely to amortize probe
replays across victims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..bender.environment import TemperatureController
from ..bender.program import TestProgram
from ..disturbance.calibration import ALL_PATTERNS, DataPattern, Mechanism
from ..disturbance.distributions import rng_for
from ..dram.bank import SIMRA_BLOCK
from ..dram.errors import AddressError
from ..dram.module import DramModule
from . import patterns
from .hcfirst import (
    ProbeSetup,
    find_hc_first_repeated,
    standard_row_data,
)
from .metrics import Measurement
from ..obs import NULL_OBS
from .probe_batch import run_batched_searches
from .scale import ExperimentScale


@dataclass(frozen=True)
class CombinedResult:
    """§6 combined-pattern outcome for one victim row."""

    victim: int
    hc_rowhammer: float
    hc_combined: float
    prefix_fractions: dict

    @property
    def reduction(self) -> float:
        """RowHammer-only HC_first over the combined RowHammer-phase count."""
        if self.hc_combined <= 0:
            return math.inf
        return self.hc_rowhammer / self.hc_combined


@dataclass
class _ProbeRequest:
    """One scalar measurement call, reified so many can run batched.

    ``measure_many_*`` builds one request per scalar measurement and
    hands the whole list to the batched engine instead of searching
    serially.
    """

    victims: tuple
    aggressors: tuple
    program_factory: Callable[[int], TestProgram]
    mechanism: Mechanism
    pattern: DataPattern
    params: dict


class CharacterizationSession:
    """Measurement primitives for one module."""

    #: route ``measure_many_*`` through the batched probe engine; False
    #: falls back to the scalar per-victim loop (bit-identical results,
    #: used by the equivalence suite and for debugging)
    batch_probes: bool = True

    def __init__(
        self,
        module: DramModule,
        scale: Optional[ExperimentScale] = None,
        bank: int = 0,
        obs=None,
    ) -> None:
        self.module = module
        self.scale = scale or ExperimentScale.default()
        self.bank = bank
        #: metrics registry shared with the batched probe engine (unit
        #: dispositions, per-probe path counters, stage timers); the
        #: default no-op registry records nothing
        self.obs = obs if obs is not None else NULL_OBS
        #: set to a dict to accumulate the batched engine's per-stage wall
        #: times across ``measure_many_*`` calls (see
        #: :func:`repro.core.probe_batch.run_batched_searches`); None skips
        #: the instrumentation.  Deliberately an *instance* attribute: a
        #: stage dict must never be shared across sessions, or timings
        #: bleed between bench cells.
        self.probe_stage_s: Optional[dict] = None
        self.controller = TemperatureController(module)
        self.controller.hold(80.0)
        self._wcdp_cache: dict[tuple[int, Mechanism], DataPattern] = {}

    def reset_probe_stages(self) -> None:
        """Zero the stage accumulator in place (keeps dict identity)."""
        if self.probe_stage_s is not None:
            self.probe_stage_s.clear()

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def set_temperature(self, celsius: float) -> None:
        self.controller.hold(celsius)

    @property
    def temperature_c(self) -> float:
        return self.module.temperature_c

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------
    def candidate_victims(self) -> list[int]:
        """Victim rows tested in this session (physical addresses).

        Mirrors §4.2: six subarrays per bank (here: ``scale.subarrays``),
        all rows within (here: every ``row_step``-th), excluding subarray
        edge rows that lack a same-subarray sandwich.
        """
        geometry = self.module.geometry
        victims: list[int] = []
        for subarray in self.scale.subarrays:
            if subarray >= geometry.subarrays_per_bank:
                continue
            rows = geometry.subarray_rows(subarray)
            for row in range(rows.start + 1, rows.stop - 1, self.scale.row_step):
                victims.append(row)
        # A full-row sweep would always cover the module's weakest rows;
        # the scaled subset includes them explicitly so population minima
        # stay meaningful at any row_step.
        for mechanism in (Mechanism.ROWHAMMER, Mechanism.COMRA):
            sentinel = self.module.model.sentinel_row(mechanism, self.bank)
            if sentinel is not None and sentinel not in victims:
                if 0 < sentinel < geometry.rows_per_bank - 1:
                    victims.append(sentinel)
        return sorted(victims)

    def simra_blocks(self) -> list[int]:
        """32-row-aligned block bases available for SiMRA group selection."""
        geometry = self.module.geometry
        bases: list[int] = []
        for subarray in self.scale.subarrays:
            if subarray >= geometry.subarrays_per_bank:
                continue
            rows = geometry.subarray_rows(subarray)
            bases.extend(range(rows.start, rows.stop, SIMRA_BLOCK))
        return bases

    def sample_simra_pairs(
        self,
        n_rows: int,
        style: str = "double-sided",
        include_sentinel: bool = True,
    ) -> list[patterns.SimraAddressPair]:
        """Randomly sample ``scale.simra_groups`` groups per tested region.

        The paper samples 100 random groups per (subarray, N); group choice
        is deterministic per module so reruns test the same groups.
        ``include_sentinel=False`` drops the weakest-row group -- condition
        sweeps use it so one extreme row does not dominate scaled-down
        population means.
        """
        bases = self.simra_blocks()
        rng = rng_for(self.module.label, "simra-groups", n_rows, style)
        chosen = rng.choice(
            len(bases), size=min(self.scale.simra_groups, len(bases)), replace=False
        )
        pairs = []
        if include_sentinel and style == "double-sided" and n_rows != 32:
            # Deterministically include the group sandwiching the module's
            # most vulnerable SiMRA victim: the scaled stand-in for the
            # paper's exhaustive 100-groups-per-subarray sampling, which
            # would cover it with near certainty.
            sentinel = self.module.model.sentinel_row(Mechanism.SIMRA, self.bank)
            if sentinel is not None:
                pair = patterns.simra_pair_sandwiching(
                    self.module, sentinel, n_rows, self.bank
                )
                if pair is not None:
                    pairs.append(pair)
        for index in sorted(int(i) for i in chosen):
            anchor = int(rng.integers(0, SIMRA_BLOCK))
            try:
                pairs.append(
                    patterns.simra_pair_for(
                        self.module, bases[index], n_rows, style,
                        anchor_offset=anchor,
                    )
                )
            except AddressError:
                continue
        return pairs

    # ------------------------------------------------------------------
    # WCDP
    # ------------------------------------------------------------------
    def wcdp(self, victim: int, mechanism: Mechanism) -> DataPattern:
        """Worst-case data pattern for a victim (§4.2).

        ``scale.wcdp_mode='oracle'`` consults the fault model;
        ``'measured'`` runs the paper's four-pattern HC_first comparison.
        """
        if self.scale.wcdp_mode == "oracle":
            key = (victim, mechanism)
            cached = self._wcdp_cache.get(key)
            if cached is None:
                cached = self.module.model.worst_case_pattern(
                    self.bank, victim, mechanism
                )
                self._wcdp_cache[key] = cached
            return cached
        return self.measure_wcdp(victim, mechanism)

    def prefetch_wcdp(
        self, victims: Sequence[int], mechanism: Mechanism
    ) -> None:
        """Resolve many victims' oracle WCDPs in one vectorized pass.

        Experiments that sweep a victim list call this once up front; the
        per-victim :meth:`wcdp` calls inside the sweep then hit the cache
        instead of re-deriving each pattern row by row.  No-op in
        ``'measured'`` mode, where WCDP comes from real HC_first searches.
        """
        if self.scale.wcdp_mode != "oracle":
            return
        pending = [
            v for v in victims if (v, mechanism) not in self._wcdp_cache
        ]
        if not pending:
            return
        best = self.module.model.worst_case_patterns(
            self.bank, pending, mechanism
        )
        for victim, pattern in zip(pending, best):
            self._wcdp_cache[(victim, mechanism)] = pattern

    def rank_victims(
        self,
        victims: Sequence[int],
        mechanism: Mechanism,
        simra_count: int = 4,
    ) -> list[int]:
        """Victims ordered weakest first by the vectorized HC_first oracle.

        Lets scaled-down experiments spend their measurement budget on the
        most vulnerable rows (the ones the paper's exhaustive sweeps would
        report) instead of an arbitrary prefix of the candidate list.
        Ties keep the input order (stable sort).
        """
        victims = list(victims)
        if not victims:
            return []
        hc = self.module.model.reference_hcfirst_array(
            self.bank, victims, mechanism, simra_count=simra_count
        )
        order = np.argsort(hc, kind="stable")
        return [victims[int(i)] for i in order]

    def measure_wcdp(self, victim: int, mechanism: Mechanism) -> DataPattern:
        """Measure WCDP the way the paper does: four coarse searches."""
        best_pattern = ALL_PATTERNS[0]
        best_hc = math.inf
        for pattern in ALL_PATTERNS:
            if mechanism is Mechanism.COMRA:
                m = self.measure_comra_ds(victim, pattern=pattern)
            elif mechanism is Mechanism.SIMRA:
                pair = self._pair_sandwiching(victim)
                if pair is None:
                    continue
                results = self.measure_simra_ds(pair, pattern=pattern,
                                                victims=(victim,))
                m = results[0] if results else None
            else:
                m = self.measure_rowhammer_ds(victim, pattern=pattern)
            if m is not None and m.found and m.hc_first < best_hc:
                best_hc = m.hc_first
                best_pattern = pattern
        return best_pattern

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def _setup_for(self, request: _ProbeRequest, victim: int) -> ProbeSetup:
        row_data = standard_row_data(
            self.module, request.aggressors, [victim], request.pattern
        )
        return ProbeSetup(
            module=self.module,
            program_factory=request.program_factory,
            row_data=row_data,
            victims=[victim],
            bank=self.bank,
        )

    def _wrap(self, request: _ProbeRequest, victim: int, outcome) -> Measurement:
        return Measurement(
            module_label=self.module.label,
            vendor=self.module.vendor.value,
            bank=self.bank,
            victim=victim,
            mechanism=request.mechanism,
            hc_first=outcome.hc_first if outcome.found else None,
            region=self.module.geometry.region_of_row(victim),
            pattern=request.pattern,
            temperature_c=self.temperature_c,
            params=dict(request.params),
        )

    def _measure_requests(
        self, requests: Sequence[_ProbeRequest], batched: bool = False
    ) -> list[list[Measurement]]:
        """Run requests and group the Measurements back per request.

        ``batched=True`` routes the flattened (request, victim) searches
        through the batched probe engine; the scalar loop is kept for
        single requests, ``batch_probes=False``, and measured-WCDP mode
        (where pattern resolution itself recurses into measurements).
        """
        flat = [
            (index, victim)
            for index, request in enumerate(requests)
            for victim in request.victims
        ]
        setups = [
            self._setup_for(requests[index], victim) for index, victim in flat
        ]
        use_engine = (
            batched
            and self.batch_probes
            and self.scale.wcdp_mode == "oracle"
            and len(setups) > 1
        )
        if use_engine:
            outcomes = run_batched_searches(
                setups,
                repeats=self.scale.repeats,
                max_hammers=self.scale.max_hammers,
                stage_s=self.probe_stage_s,
                obs=self.obs,
            )
        else:
            outcomes = [
                find_hc_first_repeated(
                    setup,
                    repeats=self.scale.repeats,
                    max_hammers=self.scale.max_hammers,
                )
                for setup in setups
            ]
        results: list[list[Measurement]] = [[] for _ in requests]
        for (index, victim), outcome in zip(flat, outcomes):
            results[index].append(self._wrap(requests[index], victim, outcome))
        return results

    # -- RowHammer / RowPress -------------------------------------------
    def _rowhammer_ds_request(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> _ProbeRequest:
        pattern = pattern or self.wcdp(victim, Mechanism.ROWHAMMER)

        def factory(count: int) -> TestProgram:
            return patterns.double_sided_rowhammer(
                self.module, victim, count, bank=self.bank, t_agg_on_ns=t_agg_on_ns
            )

        return _ProbeRequest(
            (victim,), (victim - 1, victim + 1), factory,
            Mechanism.ROWHAMMER, pattern,
            dict(t_agg_on_ns=t_agg_on_ns, sided="double"),
        )

    def measure_rowhammer_ds(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> Measurement:
        request = self._rowhammer_ds_request(victim, pattern, t_agg_on_ns)
        return self._measure_requests([request])[0][0]

    def measure_many_rowhammer_ds(
        self,
        victims: Sequence[int],
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> list[Measurement]:
        """Batched :meth:`measure_rowhammer_ds` over a victim list."""
        victims = list(victims)
        if pattern is None:
            self.prefetch_wcdp(victims, Mechanism.ROWHAMMER)
        requests = [
            self._rowhammer_ds_request(v, pattern, t_agg_on_ns) for v in victims
        ]
        return [g[0] for g in self._measure_requests(requests, batched=True)]

    def _rowhammer_ss_request(
        self,
        aggressor: int,
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> _ProbeRequest:
        victims = list(self.module.geometry.neighbors(aggressor, 1))
        pattern = pattern or self.wcdp(victims[0], Mechanism.ROWHAMMER)

        def factory(count: int) -> TestProgram:
            return patterns.single_sided_rowhammer(
                self.module, aggressor, count, bank=self.bank,
                t_agg_on_ns=t_agg_on_ns,
            )

        return _ProbeRequest(
            tuple(victims), (aggressor,), factory,
            Mechanism.ROWHAMMER, pattern,
            dict(t_agg_on_ns=t_agg_on_ns, sided="single"),
        )

    def measure_many_rowhammer_ss(
        self,
        aggressors: Sequence[int],
        pattern: Optional[DataPattern] = None,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
    ) -> list[list[Measurement]]:
        """Single-sided RowHammer per aggressor; measures each adjacent victim."""
        requests = [
            self._rowhammer_ss_request(a, pattern, t_agg_on_ns)
            for a in aggressors
        ]
        return self._measure_requests(requests, batched=True)

    def _far_ds_request(
        self,
        row_a: int,
        row_b: int,
        pattern: Optional[DataPattern] = None,
    ) -> _ProbeRequest:
        victims = list(self.module.geometry.neighbors(row_a, 1))
        pattern = pattern or self.wcdp(victims[0], Mechanism.ROWHAMMER)

        def factory(count: int) -> TestProgram:
            return patterns.far_double_sided_rowhammer(
                self.module, row_a, row_b, count, bank=self.bank
            )

        return _ProbeRequest(
            tuple(victims), (row_a, row_b), factory,
            Mechanism.ROWHAMMER, pattern, dict(sided="far-double"),
        )

    def measure_many_far_ds_rowhammer(
        self,
        row_pairs: Sequence[tuple[int, int]],
        pattern: Optional[DataPattern] = None,
    ) -> list[list[Measurement]]:
        """Fig. 7's control per (row_a, row_b) pair: two distant aggressors
        at nominal timing."""
        requests = [self._far_ds_request(a, b, pattern) for a, b in row_pairs]
        return self._measure_requests(requests, batched=True)

    # -- CoMRA ------------------------------------------------------------
    def _comra_ds_request(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        reverse: bool = False,
    ) -> _ProbeRequest:
        pattern = pattern or self.wcdp(victim, Mechanism.COMRA)

        def factory(count: int) -> TestProgram:
            return patterns.double_sided_comra(
                self.module, victim, count, bank=self.bank,
                pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
                reverse=reverse,
            )

        return _ProbeRequest(
            (victim,), (victim - 1, victim + 1), factory,
            Mechanism.COMRA, pattern,
            dict(pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
                 reverse=reverse, sided="double"),
        )

    def measure_comra_ds(
        self,
        victim: int,
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        reverse: bool = False,
    ) -> Measurement:
        request = self._comra_ds_request(
            victim, pattern, pre_to_act_ns, t_agg_on_ns, reverse
        )
        return self._measure_requests([request])[0][0]

    def measure_many_comra_ds(
        self,
        victims: Sequence[int],
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        reverse: bool = False,
    ) -> list[Measurement]:
        """Batched :meth:`measure_comra_ds` over a victim list."""
        victims = list(victims)
        if pattern is None:
            self.prefetch_wcdp(victims, Mechanism.COMRA)
        requests = [
            self._comra_ds_request(v, pattern, pre_to_act_ns, t_agg_on_ns, reverse)
            for v in victims
        ]
        return [g[0] for g in self._measure_requests(requests, batched=True)]

    def _comra_ss_request(
        self,
        src: int,
        dst: int,
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        victims: Optional[Sequence[int]] = None,
    ) -> _ProbeRequest:
        if victims is None:
            victims = list(self.module.geometry.neighbors(src, 1))
        else:
            victims = list(victims)
        pattern = pattern or self.wcdp(victims[0], Mechanism.COMRA)

        def factory(count: int) -> TestProgram:
            return patterns.single_sided_comra(
                self.module, src, dst, count, bank=self.bank,
                pre_to_act_ns=pre_to_act_ns,
            )

        return _ProbeRequest(
            tuple(victims), (src, dst), factory,
            Mechanism.COMRA, pattern,
            dict(pre_to_act_ns=pre_to_act_ns, sided="single"),
        )

    def measure_many_comra_ss(
        self,
        row_pairs: Sequence[tuple[int, int]],
        pattern: Optional[DataPattern] = None,
        pre_to_act_ns: float = patterns.COMRA_DELAY_NS,
        victims: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> list[list[Measurement]]:
        """Single-sided CoMRA per (src, dst) pair.

        ``victims`` optionally pins the measured victims per pair (parallel
        to ``row_pairs``; None entries fall back to ``src``'s neighbors).
        """
        row_pairs = list(row_pairs)
        if victims is None:
            victims = [None] * len(row_pairs)
        requests = [
            self._comra_ss_request(src, dst, pattern, pre_to_act_ns, chosen)
            for (src, dst), chosen in zip(row_pairs, victims)
        ]
        return self._measure_requests(requests, batched=True)

    # -- SiMRA ------------------------------------------------------------
    def _simra_ds_request(
        self,
        pair: patterns.SimraAddressPair,
        pattern: Optional[DataPattern] = None,
        victims: Optional[Sequence[int]] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        max_victims: int = 3,
    ) -> Optional[_ProbeRequest]:
        all_victims = pair.sandwiched_victims()
        if victims is None:
            chosen = list(all_victims[:max_victims])
            sentinel = self.module.model.sentinel_row(Mechanism.SIMRA, self.bank)
            if sentinel in all_victims and sentinel not in chosen:
                # keep the scaled victim subset representative of the full
                # sweep, which would always cover the weakest row
                chosen[-1] = sentinel
            victims = tuple(chosen)
        if not victims:
            return None
        pattern = pattern or self.wcdp(victims[0], Mechanism.SIMRA)

        def factory(count: int) -> TestProgram:
            return patterns.simra_hammer(
                self.module, pair, count, bank=self.bank,
                act_to_pre_ns=act_to_pre_ns, pre_to_act_ns=pre_to_act_ns,
                t_agg_on_ns=t_agg_on_ns,
            )

        return _ProbeRequest(
            tuple(victims), tuple(pair.group), factory,
            Mechanism.SIMRA, pattern,
            dict(n_rows=pair.count, act_to_pre_ns=act_to_pre_ns,
                 pre_to_act_ns=pre_to_act_ns, t_agg_on_ns=t_agg_on_ns,
                 sided="double"),
        )

    def measure_simra_ds(
        self,
        pair: patterns.SimraAddressPair,
        pattern: Optional[DataPattern] = None,
        victims: Optional[Sequence[int]] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        max_victims: int = 3,
    ) -> list[Measurement]:
        """Double-sided SiMRA: HC_first of sandwiched victims of a group."""
        request = self._simra_ds_request(
            pair, pattern, victims, act_to_pre_ns, pre_to_act_ns,
            t_agg_on_ns, max_victims,
        )
        if request is None:
            return []
        return self._measure_requests([request])[0]

    def measure_many_simra_ds(
        self,
        pairs: Sequence[patterns.SimraAddressPair],
        pattern: Optional[DataPattern] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
        t_agg_on_ns: float = patterns.T_AGG_ON_NOMINAL_NS,
        max_victims: int = 3,
    ) -> list[list[Measurement]]:
        """Batched :meth:`measure_simra_ds` over a group list.

        Groups with no sandwiched victim yield an empty list in their
        slot, mirroring the scalar method's return value.
        """
        pairs = list(pairs)
        requests = []
        slots: list[Optional[int]] = []
        for pair in pairs:
            request = self._simra_ds_request(
                pair, pattern, None, act_to_pre_ns, pre_to_act_ns,
                t_agg_on_ns, max_victims,
            )
            if request is None:
                slots.append(None)
            else:
                slots.append(len(requests))
                requests.append(request)
        measured = self._measure_requests(requests, batched=True)
        return [measured[slot] if slot is not None else [] for slot in slots]

    def _simra_ss_request(
        self,
        pair: patterns.SimraAddressPair,
        pattern: Optional[DataPattern] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
    ) -> Optional[_ProbeRequest]:
        geometry = self.module.geometry
        edge_victims = []
        for candidate in (min(pair.group) - 1, max(pair.group) + 1):
            if (
                0 <= candidate < geometry.rows_per_bank
                and geometry.same_subarray(candidate, min(pair.group))
                and candidate not in pair.group
            ):
                edge_victims.append(candidate)
        if not edge_victims:
            return None
        pattern = pattern or self.wcdp(edge_victims[0], Mechanism.SIMRA)

        def factory(count: int) -> TestProgram:
            return patterns.simra_hammer(
                self.module, pair, count, bank=self.bank,
                act_to_pre_ns=act_to_pre_ns, pre_to_act_ns=pre_to_act_ns,
            )

        return _ProbeRequest(
            tuple(edge_victims), tuple(pair.group), factory,
            Mechanism.SIMRA, pattern,
            dict(n_rows=pair.count, sided="single",
                 act_to_pre_ns=act_to_pre_ns, pre_to_act_ns=pre_to_act_ns),
        )

    def measure_many_simra_ss(
        self,
        pairs: Sequence[patterns.SimraAddressPair],
        pattern: Optional[DataPattern] = None,
        act_to_pre_ns: float = patterns.SIMRA_ACT_TO_PRE_NS,
        pre_to_act_ns: float = patterns.SIMRA_PRE_TO_ACT_NS,
    ) -> list[list[Measurement]]:
        """Single-sided SiMRA per group: victims bordering a contiguous group.

        Groups with no measurable edge victim yield an empty list in their
        slot.
        """
        pairs = list(pairs)
        requests = []
        slots: list[Optional[int]] = []
        for pair in pairs:
            request = self._simra_ss_request(
                pair, pattern, act_to_pre_ns, pre_to_act_ns
            )
            if request is None:
                slots.append(None)
            else:
                slots.append(len(requests))
                requests.append(request)
        measured = self._measure_requests(requests, batched=True)
        return [measured[slot] if slot is not None else [] for slot in slots]

    # -- §6 combined patterns ----------------------------------------------
    def _pair_sandwiching(
        self, victim: int, n_rows: int = 2
    ) -> Optional[patterns.SimraAddressPair]:
        """A SiMRA pair whose activated rows sandwich ``victim``."""
        return patterns.simra_pair_sandwiching(
            self.module, victim, n_rows, self.bank
        )

    def combined_victims(self) -> list[int]:
        """Candidate victims usable for every §6 phase (RH, CoMRA, SiMRA-2).

        SiMRA-2 pairs require the victim's neighbors to differ in address
        bit 1 within one 32-row block, i.e. victims at offset 1 (mod 4).
        """
        return [
            victim
            for victim in self.candidate_victims()
            if self._pair_sandwiching(victim) is not None
        ]

    def _combined_request(
        self,
        victim: int,
        pattern: DataPattern,
        prefix_instructions: list,
    ) -> _ProbeRequest:
        def factory(count: int) -> TestProgram:
            tail = patterns.double_sided_rowhammer(
                self.module, victim, count, bank=self.bank
            )
            return TestProgram(
                prefix_instructions + tail.instructions, "combined"
            )

        return _ProbeRequest(
            (victim,), (victim - 1, victim + 1), factory,
            Mechanism.ROWHAMMER, pattern, {},
        )

    def measure_combined(
        self,
        victim: int,
        comra_fraction: float = 0.0,
        simra_fraction: float = 0.0,
        pattern: Optional[DataPattern] = None,
    ) -> Optional[CombinedResult]:
        """§6 procedure: pre-hammer with CoMRA/SiMRA, finish with RowHammer.

        Returns None when a needed phase has no measurable HC_first.
        """
        return self.measure_many_combined(
            [victim], comra_fraction, simra_fraction, pattern
        )[0]

    def measure_many_combined(
        self,
        victims: Sequence[int],
        comra_fraction: float = 0.0,
        simra_fraction: float = 0.0,
        pattern: Optional[DataPattern] = None,
    ) -> list[Optional[CombinedResult]]:
        """Batched §6 procedure over a victim list.

        Stage-decomposed: all RowHammer-alone searches run as one batch,
        then the CoMRA / SiMRA characterization phases over the victims
        that survive each stage's found-guard, then the combined searches.
        Per-victim outcomes (including the None short-circuits) match the
        scalar :meth:`measure_combined` loop exactly.
        """
        victims = list(victims)
        if pattern is None:
            self.prefetch_wcdp(victims, Mechanism.ROWHAMMER)
        resolved = {
            v: pattern or self.wcdp(v, Mechanism.ROWHAMMER) for v in victims
        }
        results: dict[int, Optional[CombinedResult]] = {v: None for v in victims}

        rh_requests = [
            self._rowhammer_ds_request(v, pattern=resolved[v]) for v in victims
        ]
        measured = self._measure_requests(rh_requests, batched=True)
        rh = {v: group[0] for v, group in zip(victims, measured)}
        alive = [v for v in victims if rh[v].found]

        comra_hc: dict[int, float] = {}
        if comra_fraction > 0 and alive:
            requests = [
                self._comra_ds_request(v, pattern=resolved[v]) for v in alive
            ]
            measured = self._measure_requests(requests, batched=True)
            survivors = []
            for v, group in zip(alive, measured):
                if group[0].found:
                    comra_hc[v] = group[0].hc_first
                    survivors.append(v)
            alive = survivors

        simra_hc: dict[int, float] = {}
        simra_pairs: dict[int, patterns.SimraAddressPair] = {}
        if simra_fraction > 0 and alive:
            with_pair = []
            requests = []
            for v in alive:
                pair = self._pair_sandwiching(v)
                if pair is None:
                    continue
                request = self._simra_ds_request(
                    pair, pattern=resolved[v], victims=(v,)
                )
                if request is None:
                    continue
                simra_pairs[v] = pair
                with_pair.append(v)
                requests.append(request)
            measured = self._measure_requests(requests, batched=True)
            alive = []
            for v, group in zip(with_pair, measured):
                if group and group[0].found:
                    simra_hc[v] = group[0].hc_first
                    alive.append(v)

        final_requests = []
        final_meta = []
        for v in alive:
            prefix_programs: list[TestProgram] = []
            fractions: dict[str, float] = {}
            if comra_fraction > 0:
                count = max(1, int(comra_fraction * comra_hc[v] * 0.999))
                prefix_programs.append(
                    patterns.double_sided_comra(self.module, v, count, bank=self.bank)
                )
                fractions["comra"] = comra_fraction
            if simra_fraction > 0:
                count = max(1, int(simra_fraction * simra_hc[v] * 0.999))
                prefix_programs.append(
                    patterns.simra_hammer(
                        self.module, simra_pairs[v], count, bank=self.bank
                    )
                )
                fractions["simra"] = simra_fraction
            prefix_instructions = [
                instr for program in prefix_programs
                for instr in program.instructions
            ]
            final_requests.append(
                self._combined_request(v, resolved[v], prefix_instructions)
            )
            final_meta.append((v, fractions))
        measured = self._measure_requests(final_requests, batched=True)
        for (v, fractions), group in zip(final_meta, measured):
            outcome = group[0]
            if outcome.found:
                results[v] = CombinedResult(
                    victim=v,
                    hc_rowhammer=float(rh[v].hc_first),
                    hc_combined=float(outcome.hc_first),
                    prefix_fractions=fractions,
                )
        return [results[v] for v in victims]
