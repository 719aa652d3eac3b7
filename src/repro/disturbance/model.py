"""Behavioral read-disturbance model of one simulated DRAM module.

This module is the "silicon" of the reproduction.  The bank engine
(:mod:`repro.dram.bank`) folds raw DDR4 command streams into
:class:`~repro.dram.commands.ActivationEvent` objects; this model converts
each event into *damage* on physically neighboring victim rows and, when a
row is read back, materializes bitflips into its stored data.

Core ideas (see DESIGN.md §4):

* Every victim row has a reference threshold ``hc_ref`` -- its HC_first
  under double-sided RowHammer at 80 degC / worst-case data pattern /
  nominal timings -- sampled from a lognormal fitted to the paper's Table 2.
* Damage is accumulated per (mechanism, flip-direction) pool in
  *threshold-fraction* units: one double-sided RowHammer iteration at
  reference conditions adds exactly ``1 / hc_ref``.
* Mechanism multipliers (CoMRA pair boost, SiMRA group boost), condition
  factors (temperature, data pattern coupling, tAggOn/tAggOff, PRE->ACT
  latency, subarray region) scale the per-event increment.
* A direction pool flips cells once its *coupled* damage (own pool plus
  eta-weighted other-mechanism pools) crosses 1.0; flip counts follow a
  per-cell lognormal threshold CDF.

All randomness is deterministic per (module serial, row, purpose), so a
module is a reproducible virtual chip.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..dram.commands import ActivationEvent
from ..dram.errors import CalibrationError
from ..dram.organization import ModuleGeometry, REGION_ORDER
from .calibration import (
    ALL_PATTERNS,
    COMRA_PROB_BETTER,
    DataPattern,
    FlipDirection,
    Mechanism,
    ModuleCalibration,
    SIMRA_COUNTS,
    SIMRA_HI_MEDIAN,
    SIMRA_HI_SIGMA,
    SIMRA_P_HI,
    SIMRA_PROB_BETTER,
    VendorCalibration,
    vendor_calibration,
)
from .distributions import (
    Lognormal,
    MixtureRatio,
    fit_lognormal_min_avg,
    log_interp,
    normal_cdf,
    rng_for,
    solve_ratio_lognormal,
)
from .ledger import (
    DIR_INDEX,
    DamageLedger,
    MECH_INDEX,
    N_POOLS,
    POOL_INDEX,
    POOL_KEYS,
    POOL_MECHS,
)
from .population import PopulationTable, sample_population

#: Opposite-neighbor hits within this many victim-hit events count as
#: double-sided synergy (alternating double-sided patterns always qualify).
SYNERGY_HIT_WINDOW = 3

#: Reference temperature: the paper conducts all experiments at 80 degC
#: unless stated otherwise, and hc_ref is defined there.
REFERENCE_TEMPERATURE_C = 80.0

#: Population size assumed when fitting per-config lognormals from the
#: reported (min, avg): the paper tests six subarrays x ~512 rows x modules.
_FIT_POPULATION = 6 * 512 * 2


@dataclass
class RowProfile:
    """All sampled per-row fault-model parameters (lazily constructed)."""

    hc_ref: float
    ss_penalty: float
    comra_ratio: float
    direction_ratio: dict[Mechanism, float]
    temp_slope: dict[Mechanism, float]
    eta: dict[tuple[Mechanism, Mechanism], float]
    region_index: int
    partial_susceptible: bool
    pattern_noise: dict[DataPattern, float]
    copy_dir_noise: dict[bool, float]
    press_noise: float
    weak_cells: int
    retention_ns: float
    simra_ratio: dict[int, float] = field(default_factory=dict)


class DisturbanceModel:
    """Read-disturbance physics for one module's bank.

    One instance is shared by all banks of a module; row addresses are
    namespaced by bank internally.
    """

    def __init__(
        self,
        geometry: ModuleGeometry,
        calibration: ModuleCalibration,
        serial: int = 0,
    ) -> None:
        self.geometry = geometry
        self.calibration = calibration
        self.vendor_cal: VendorCalibration = vendor_calibration(calibration.vendor)
        self.serial = serial

        self._hc_dist = fit_lognormal_min_avg(
            calibration.rh_min, calibration.rh_avg, _FIT_POPULATION
        )
        self._comra_ratio_dist = solve_ratio_lognormal(
            mean_inverse=calibration.comra_avg / calibration.rh_avg,
            prob_above_one=COMRA_PROB_BETTER,
        )
        self._simra_mixture: Optional[MixtureRatio] = None
        if calibration.supports_simra and self.vendor_cal.supports_simra:
            assert calibration.simra_avg is not None
            self._simra_mixture = MixtureRatio.solve(
                mean_inverse=calibration.simra_avg / calibration.rh_avg,
                p_hi=SIMRA_P_HI,
                hi_median=SIMRA_HI_MEDIAN,
                hi_sigma=SIMRA_HI_SIGMA,
            )

        self._profiles: dict[tuple[int, int], RowProfile] = {}
        self._tables: dict[tuple[int, int], PopulationTable] = {}
        #: structure-of-arrays damage state; see disturbance/ledger.py
        self.ledger = DamageLedger()
        self._plans: OrderedDict[tuple, list] = OrderedDict()
        self._factor_cache: dict[tuple, tuple] = {}
        self._press_base_cache: dict[tuple, float] = {}
        self._tpr_cache: dict[tuple, tuple] = {}
        self._flip_orders: dict[tuple[int, int, FlipDirection], np.ndarray] = {}
        self._sentinels = self._assign_sentinels()

    # ------------------------------------------------------------------
    # Sentinel rows: one row per mechanism whose reference HC_first equals
    # the Table 2 minimum, so scaled-down populations still reproduce the
    # paper's headline minima (full-scale populations would hit them by
    # sampling alone).
    # ------------------------------------------------------------------
    def _assign_sentinels(self) -> dict[tuple[int, int], Mechanism]:
        geom = self.geometry
        # Subarray 2 sits in every tested-subarray preset (ExperimentScale
        # tests subarrays from the beginning, middle and end of the bank).
        subarray = min(2, geom.subarrays_per_bank - 1)
        base = subarray * geom.rows_per_subarray + geom.rows_per_subarray // 2
        sentinels: dict[tuple[int, int], Mechanism] = {
            (0, base): Mechanism.ROWHAMMER,
            (0, base + 4): Mechanism.COMRA,
        }
        if self.supports_simra:
            # The SiMRA sentinel must be *sandwichable* by stride-2 decoder
            # groups of every N: odd offset 9 within its 32-row block keeps
            # the even neighbors 8 and 10 inside aligned windows for
            # N = 2/4/8/16.
            block = ((base + 8) // 32) * 32
            sentinels[(0, block + 9)] = Mechanism.SIMRA
        return sentinels

    @property
    def supports_simra(self) -> bool:
        return (
            self.calibration.supports_simra and self.vendor_cal.supports_simra
        )

    def sentinel_row(self, mechanism: Mechanism, bank: int = 0) -> Optional[int]:
        """Physical row whose HC_first hits the configured minimum."""
        for (b, row), mech in self._sentinels.items():
            if mech is mechanism and b == bank:
                return row
        return None

    # ------------------------------------------------------------------
    # Per-row profile sampling
    # ------------------------------------------------------------------
    def population(self, bank: int, subarray: int) -> PopulationTable:
        """The subarray's structure-of-arrays profile table (bulk-sampled)."""
        key = (bank, subarray)
        table = self._tables.get(key)
        if table is None:
            table = sample_population(self, bank, subarray)
            self._tables[key] = table
        return table

    def profile(self, bank: int, row: int) -> RowProfile:
        """Per-row view into the bulk-sampled population table."""
        key = (bank, row)
        prof = self._profiles.get(key)
        if prof is None:
            table = self.population(
                bank, row // self.geometry.rows_per_subarray
            )
            prof = table.view(row - table.row_start)
            self._profiles[key] = prof
        return prof

    def _sample_profile(self, bank: int, row: int) -> RowProfile:
        """Scalar per-row sampler, retained as the pre-table reference.

        ~40 scalar RNG draws per row from per-row streams.  The population
        table replaced it as the source of :meth:`profile`; it survives as
        the baseline side of the ``population_scan`` hot-path benchmark and
        as executable documentation of the per-field sampling semantics.
        """
        cal = self.calibration
        vc = self.vendor_cal
        sentinel = self._sentinels.get((bank, row))

        rng = rng_for(cal.config_id, self.serial, bank, row)
        # Table 2's minima are *population* minima: no sampled row may
        # undershoot them (the sentinel rows sit exactly on them).
        hc_ref = max(float(self._hc_dist.sample(rng)), 0.95 * cal.rh_min)
        comra_ratio = float(self._comra_ratio_dist.sample(rng))
        comra_ratio = min(comra_ratio, hc_ref / (0.95 * cal.comra_min))

        ss_pen = float(
            Lognormal(math.log(vc.ss_penalty_median), vc.ss_penalty_sigma).sample(rng)
        )
        direction_ratio = {
            mech: float(
                Lognormal(
                    math.log(vc.direction_ratio_median[mech]),
                    vc.direction_ratio_sigma[mech],
                ).sample(rng)
            )
            for mech in Mechanism
        }
        temp_slope = {
            mech: float(
                rng.normal(vc.temp_slope_mean.get(mech, 0.0),
                           vc.temp_slope_sd.get(mech, 0.0))
            )
            for mech in Mechanism
        }
        eta: dict[tuple[Mechanism, Mechanism], float] = {}
        for pair, mean in vc.eta_mean.items():
            noise = float(rng.lognormal(0.0, vc.eta_sigma))
            value = min(0.9, mean * noise)
            if pair[0] is Mechanism.SIMRA and rng.random() < vc.eta_simra_zero_prob:
                value = 0.0
            eta[pair] = value

        region_index = REGION_ORDER.index(self.geometry.region_of_row(row))
        partial_susceptible = bool(rng.random() < vc.simra_partial_prob)
        pattern_noise = {
            pattern: float(rng.lognormal(0.0, 0.08)) for pattern in ALL_PATTERNS
        }
        copy_dir_noise = {}
        for forward in (True, False):
            if rng.random() < vc.copy_direction_tail_prob:
                noise = float(rng.lognormal(0.0, vc.copy_direction_tail_sigma))
            else:
                noise = float(rng.lognormal(0.0, vc.copy_direction_sigma))
            copy_dir_noise[forward] = noise
        press_noise = float(rng.lognormal(0.0, 0.12))
        weak_cells = max(
            8, int(self.geometry.columns * vc.weak_cell_fraction * rng.uniform(0.6, 1.4))
        )
        retention_ns = float(
            Lognormal(math.log(vc.retention_median_ns), vc.retention_sigma).sample(rng)
        )

        prof = RowProfile(
            hc_ref=hc_ref,
            ss_penalty=ss_pen,
            comra_ratio=comra_ratio,
            direction_ratio=direction_ratio,
            temp_slope=temp_slope,
            eta=eta,
            region_index=region_index,
            partial_susceptible=partial_susceptible,
            pattern_noise=pattern_noise,
            copy_dir_noise=copy_dir_noise,
            press_noise=press_noise,
            weak_cells=weak_cells,
            retention_ns=retention_ns,
        )
        for count in SIMRA_COUNTS:
            ratio = self._sample_simra_ratio(rng, count)
            if cal.simra_min:
                ratio = min(ratio, hc_ref / (0.95 * cal.simra_min))
            prof.simra_ratio[count] = ratio

        if sentinel is not None:
            self._pin_sentinel(prof, sentinel)
        return prof

    def _sample_simra_ratio(self, rng: np.random.Generator, count: int) -> float:
        """Sample the double-sided SiMRA HC_first reduction factor for one N.

        The mixture reproduces Obs. 12's bimodality; the sample is then
        shifted so that P(ratio > 1) matches the per-N improve fraction.
        """
        if self._simra_mixture is None:
            return 1.0
        ratio = self._simra_mixture.sample(rng)
        prob_better = SIMRA_PROB_BETTER.get(count, 0.95)
        if rng.random() > prob_better:
            # This victim regresses under SiMRA (Obs. 12's tail).
            ratio = float(rng.uniform(0.55, 0.98))
        else:
            ratio = max(ratio, 1.001)
        return ratio

    def _pin_sentinel(self, prof: RowProfile, mechanism: Mechanism) -> None:
        """Force a row's reference HC_first to the Table 2 minimum."""
        cal = self.calibration
        region = self._region_factor(prof, Mechanism.ROWHAMMER, None)
        prof.pattern_noise = {p: 1.0 for p in ALL_PATTERNS}
        prof.press_noise = 1.0
        prof.copy_dir_noise = {True: 1.0, False: 1.0}
        prof.temp_slope = dict(prof.temp_slope)
        if mechanism is Mechanism.ROWHAMMER:
            prof.hc_ref = cal.rh_min * region
        elif mechanism is Mechanism.COMRA:
            prof.hc_ref = cal.rh_min * 1.15
            region_c = self._region_factor(prof, Mechanism.COMRA, None)
            prof.comra_ratio = prof.hc_ref / (cal.comra_min * region_c)
        elif mechanism is Mechanism.SIMRA and cal.simra_min is not None:
            prof.hc_ref = cal.rh_min * 1.10
            # The paper's deepest reduction example uses 4-row activation
            # (158.58x at N = 4, Obs. 12); pin N = 4 to the minimum and
            # keep the other counts within 1.3x of it (non-monotonic in N).
            for count in SIMRA_COUNTS:
                region_s = self._region_factor(prof, Mechanism.SIMRA, count)
                target = cal.simra_min * (1.0 if count == 4 else 1.27)
                prof.simra_ratio[count] = prof.hc_ref / (target * region_s)

    # ------------------------------------------------------------------
    # Condition factors
    # ------------------------------------------------------------------
    def _region_factor(
        self, prof: RowProfile, mechanism: Mechanism, simra_count: Optional[int]
    ) -> float:
        vc = self.vendor_cal
        if (
            mechanism is Mechanism.SIMRA
            and simra_count is not None
            and simra_count in vc.simra_spatial_by_count
        ):
            profile = vc.simra_spatial_by_count[simra_count]
        else:
            profile = vc.spatial_profile[mechanism]
        return profile[prof.region_index]

    def _temperature_factor(
        self, prof: RowProfile, mechanism: Mechanism, temperature_c: float
    ) -> float:
        slope = prof.temp_slope.get(mechanism, 0.0)
        return math.exp(slope * (temperature_c - REFERENCE_TEMPERATURE_C))

    def _press_factor(
        self, prof: RowProfile, mechanism: Mechanism, t_agg_on_ns: float
    ) -> float:
        anchors = self.vendor_cal.press_anchors[mechanism]
        base = log_interp(max(t_agg_on_ns, 36.0), anchors)
        if base <= 1.0:
            return base
        # Noise scales the *excess* over the hammering baseline so nominal
        # tRAS hammering stays exactly calibrated.
        return 1.0 + (base - 1.0) * prof.press_noise

    #: tAggOff normalization: per-ACT damage grows logarithmically with the
    #: gap since the aggressor last closed (RowPress prior work; drives
    #: Obs. 5's single-sided CoMRA > single-sided RowHammer ordering).  The
    #: factor is normalized to the double-sided reference loop's natural gap
    #: (~tRP + tRAS + tRP = 63 ns) so hc_ref stays exactly calibrated, and
    #: saturates there: back-to-back single-sided hammering (gap ~ tRP) is
    #: penalized, longer gaps gain nothing beyond the reference.
    _AGGOFF_MIN_GAP_NS = 13.5
    _AGGOFF_REF_GAP_NS = 63.0
    _AGGOFF_COEFF = 0.17

    def _aggoff_factor(self, t_agg_off_ns: Optional[float]) -> float:
        if t_agg_off_ns is None:
            return 1.0
        gap = max(self._AGGOFF_MIN_GAP_NS, t_agg_off_ns)
        raw = 1.0 + self._AGGOFF_COEFF * math.log2(gap / self._AGGOFF_MIN_GAP_NS)
        reference = 1.0 + self._AGGOFF_COEFF * math.log2(
            self._AGGOFF_REF_GAP_NS / self._AGGOFF_MIN_GAP_NS
        )
        return min(raw, reference) / reference

    def _pattern_factor(
        self,
        prof: RowProfile,
        mechanism: Mechanism,
        aggressor_pattern: Optional[DataPattern],
    ) -> float:
        if aggressor_pattern is None:
            return 0.95  # unclassifiable aggressor data: near-median coupling
        table = self.vendor_cal.pattern_coupling.get(mechanism) or {}
        coupling = table.get(aggressor_pattern, 0.9)
        return coupling * prof.pattern_noise[aggressor_pattern]

    def _comra_latency_factor(self, pre_to_act_ns: float) -> float:
        table = self.vendor_cal.comra_latency_decay
        keys = sorted(table)
        if pre_to_act_ns <= keys[0]:
            return table[keys[0]]
        if pre_to_act_ns >= keys[-1]:
            return table[keys[-1]]
        for lo, hi in zip(keys, keys[1:]):
            if lo <= pre_to_act_ns <= hi:
                t = (pre_to_act_ns - lo) / (hi - lo)
                return table[lo] + t * (table[hi] - table[lo])
        raise AssertionError("unreachable")  # pragma: no cover

    def _simra_preact_factor(self, pre_to_act_ns: Optional[float]) -> float:
        if pre_to_act_ns is None:
            return 1.0
        slope = self.vendor_cal.simra_pre_act_slope_per_ns
        return max(0.5, 1.0 + slope * (pre_to_act_ns - 3.0))

    def _simra_partial_factor(
        self, prof: RowProfile, act_to_pre_ns: Optional[float]
    ) -> float:
        if act_to_pre_ns is None or act_to_pre_ns > 1.6:
            return 1.0
        if prof.partial_susceptible:
            return self.vendor_cal.simra_partial_weight
        return 1.0

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def restore_row(self, bank: int, row: int) -> None:
        """Charge restoration (ACT or refresh) clears accumulated damage."""
        slot = self.ledger.peek(bank, row)
        if slot is not None:
            self.ledger.restore(slot)

    def damage_fraction(self, bank: int, row: int) -> dict[tuple[Mechanism, FlipDirection], float]:
        """Current raw damage pools of a row (inspection/testing hook)."""
        led = self.ledger
        slot = led.peek(bank, row)
        if slot is None:
            return {}
        dmg = led.dmg
        base = slot * N_POOLS
        return {POOL_KEYS[p]: dmg[base + p] for p in led.pool_order[slot]}

    def coupled_damage(self, bank: int, row: int, direction: FlipDirection) -> float:
        """Effective damage for one flip direction, eta-coupling included.

        The effective value is the max over mechanisms of the pool's own
        damage plus eta-weighted contributions from the other mechanisms'
        pools, which reproduces §6's combined-pattern arithmetic.  Cross-
        mechanism transfer is *direction-agnostic*: pre-hammering damage
        acts through shared trap sites regardless of which polarity it
        would itself flip (SiMRA's 1->0 pre-hammering still softens cells
        toward RowHammer's 0->1 flips, Obs. 23).
        """
        led = self.ledger
        slot = led.peek(bank, row)
        if slot is None:
            return 0.0
        order = led.pool_order[slot]
        if not order:
            return 0.0
        prof = self.profile(bank, row)
        dmg = led.dmg
        base = slot * N_POOLS
        d_i = DIR_INDEX[direction]
        d_o = d_i ^ 1
        best = 0.0
        # pool_order reproduces the reference dict's key insertion order,
        # so this set iterates identically to {m for (m, _) in damage}
        mechanisms = {POOL_MECHS[p] for p in order}
        for mech in mechanisms:
            own_base = base + MECH_INDEX[mech] * 2
            coupled = dmg[own_base + d_i]
            for other in mechanisms:
                if other is mech:
                    continue
                eta = prof.eta.get((other, mech), 0.0)
                oth_base = base + MECH_INDEX[other] * 2
                coupled += eta * (dmg[oth_base + d_i] + dmg[oth_base + d_o])
            best = max(best, coupled)
        return best

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply_event(
        self,
        event: ActivationEvent,
        temperature_c: float = REFERENCE_TEMPERATURE_C,
        aggressor_pattern: Optional[DataPattern] = None,
        times: float = 1,
    ) -> None:
        """Accrue damage from one completed activation event.

        ``times`` scales the increments, letting the host apply one recorded
        loop iteration ``n`` times (damage is linear in iteration count).
        """
        if times <= 0:
            return
        if event.kind is ActivationEvent.Kind.SIMRA:
            self._apply_simra(event, temperature_c, aggressor_pattern, times)
        elif event.kind is ActivationEvent.Kind.COMRA_PAIR:
            self._apply_comra(event, temperature_c, aggressor_pattern, times)
        else:
            self._apply_single(event, temperature_c, aggressor_pattern, times)

    # -- single-row activation -----------------------------------------
    #
    # Hammer loops repeat the same event millions of times, so each event
    # shape compiles once into a "deposit plan": a list of per-victim
    # increments with all static factors folded in.  Applying a plan is a
    # handful of dict operations; only double-sided synergy (which depends
    # on interleaving) is resolved at apply time.

    #: deposit-plan LRU capacity; evictions drop the *least recently used*
    #: plan only, so a long experiment never loses its hot loop plans at once
    _PLAN_CACHE_LIMIT = 50_000

    def _plan_lookup(self, key: tuple) -> Optional[list]:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
        return plan

    def _plan_store(self, key: tuple, plan: list) -> None:
        self._plans[key] = plan
        if len(self._plans) > self._PLAN_CACHE_LIMIT:
            self._plans.popitem(last=False)

    def _event_time_key(
        self, event: ActivationEvent, with_pre_to_act: bool = True
    ) -> tuple:
        # tAggOff enters every plan only through _aggoff_factor, which is
        # flat below _AGGOFF_MIN_GAP_NS and above _AGGOFF_REF_GAP_NS;
        # clamping the key into that band collapses all equivalent gaps
        # onto one cached plan instead of one plan per distinct gap.
        lo = self._AGGOFF_MIN_GAP_NS
        hi = self._AGGOFF_REF_GAP_NS
        return (
            round(event.t_agg_on_ns, 1),
            round(event.pre_to_act_ns, 1)
            if with_pre_to_act and event.pre_to_act_ns is not None
            else None,
            round(event.simra_act_to_pre_ns, 1)
            if event.simra_act_to_pre_ns is not None
            else None,
            tuple(
                sorted(
                    (r, round(min(max(v, lo), hi), 1))
                    for r, v in event.t_agg_off_ns.items()
                )
            ),
        )

    def _apply_plan(self, plan: list, times: float) -> None:
        led = self.ledger
        dmg = led.dmg
        hits_mv = led.hits_mv
        side_mv = led.side_mv
        orders = led.pool_order
        for slot, side, p_dom, p_oth, inc_dom, inc_oth, penalty in plan:
            hits = hits_mv[slot] + 1
            hits_mv[slot] = hits
            s2 = slot + slot
            if side is None:
                # sandwiched double-sided hit: both wordlines toggle
                side_mv[s2] = hits
                side_mv[s2 + 1] = hits
                scale = times
            else:
                if side < 0:
                    side_mv[s2] = hits
                    other = side_mv[s2 + 1]
                else:
                    side_mv[s2 + 1] = hits
                    other = side_mv[s2]
                # NO_HIT sentinel makes the window test False without a
                # presence check (hits - NO_HIT is astronomically large)
                scale = (
                    times if hits - other <= SYNERGY_HIT_WINDOW
                    else times / penalty
                )
            order = orders[slot]
            base = slot * N_POOLS
            if p_dom not in order:
                order.append(p_dom)
            i = base + p_dom
            dmg[i] = dmg[i] + inc_dom * scale
            if p_oth not in order:
                order.append(p_oth)
            i = base + p_oth
            dmg[i] = dmg[i] + inc_oth * scale

    def _plan_entry(
        self,
        bank: int,
        victim: int,
        prof: RowProfile,
        mechanism: Mechanism,
        weight: float,
        side,
    ) -> tuple:
        dominant = self.vendor_cal.dominant_direction[mechanism]
        ratio = max(prof.direction_ratio.get(mechanism, 1.0), 1.0)
        increment = weight / prof.hc_ref
        return (
            self.ledger.slot(bank, victim),
            side,
            POOL_INDEX[(mechanism, dominant)],
            POOL_INDEX[(mechanism, dominant.opposite)],
            increment,
            increment / ratio,
            prof.ss_penalty,
        )

    def _apply_single(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
        times: float,
    ) -> None:
        (aggressor,) = event.rows
        # _build_single_plan never reads pre_to_act, so two events that
        # differ only in that gap share a plan.
        key = (
            "single", event.bank, aggressor, temperature_c, aggressor_pattern,
            self._event_time_key(event, with_pre_to_act=False),
        )
        plan = self._plan_lookup(key)
        if plan is None:
            plan = self._build_single_plan(event, temperature_c, aggressor_pattern)
            self._plan_store(key, plan)
        self._apply_plan(plan, times)

    def _build_single_plan(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
    ) -> list:
        (aggressor,) = event.rows
        # tAggOff scales every weight by one scalar, so all gap variants of
        # an aggressor's plan share a gap-free base (built once, cached at
        # the same key granularity as the plan LRU) and differ only by a
        # cheap per-entry rescale.  tAggOn enters the base only through the
        # profile-independent interpolated press factor, so the base is
        # keyed on that value: every on-time below the 36 ns clamp (hammer
        # ACTs and re-initialization write sessions alike) collapses onto
        # one shared build.
        mech = Mechanism.ROWHAMMER
        aggoff = self._aggoff_factor(event.t_agg_off_ns.get(aggressor))
        pkey = (mech, event.t_agg_on_ns)
        press_base = self._press_base_cache.get(pkey)
        if press_base is None:
            anchors = self.vendor_cal.press_anchors[mech]
            press_base = log_interp(max(event.t_agg_on_ns, 36.0), anchors)
            self._press_base_cache[pkey] = press_base
        base_key = (
            "single-base", event.bank, aggressor,
            press_base, temperature_c, aggressor_pattern,
        )
        base = self._plan_lookup(base_key)
        if base is None:
            base = []
            for distance, dist_weight in self._distance_weights():
                for victim in self.geometry.neighbors(aggressor, distance):
                    prof = self.profile(event.bank, victim)
                    side = 1 if aggressor > victim else -1
                    weight = 0.5 * dist_weight * self._common_factors(
                        prof, mech, event.t_agg_on_ns, temperature_c,
                        aggressor_pattern, simra_count=None,
                    )
                    base.append(
                        self._plan_entry(
                            event.bank, victim, prof, mech, weight, side
                        )
                    )
            self._plan_store(base_key, base)
        if aggoff == 1.0:
            return base
        return [
            (state, side, dom, oth, inc_dom * aggoff, inc_oth * aggoff, pen)
            for state, side, dom, oth, inc_dom, inc_oth, pen in base
        ]

    # -- CoMRA pair -------------------------------------------------------
    def _apply_comra(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
        times: float,
    ) -> None:
        key = (
            "comra", event.bank, event.rows, temperature_c, aggressor_pattern,
            self._event_time_key(event),
        )
        plan = self._plan_lookup(key)
        if plan is None:
            plan = self._build_comra_plan(event, temperature_c, aggressor_pattern)
            self._plan_store(key, plan)
        self._apply_plan(plan, times)

    def _build_comra_plan(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
    ) -> list:
        src, dst = event.rows
        mech = Mechanism.COMRA
        latency = self._comra_latency_factor(event.pre_to_act_ns or 7.5)
        forward = src < dst
        plan = []

        sandwiched = set()
        if abs(src - dst) == 2 and self.geometry.same_subarray(src, dst):
            victim = (src + dst) // 2
            sandwiched.add(victim)
            prof = self.profile(event.bank, victim)
            weight = (
                prof.comra_ratio
                * latency
                * prof.copy_dir_noise[forward]
                * self._common_factors(
                    prof, mech, event.t_agg_on_ns, temperature_c,
                    aggressor_pattern, simra_count=None,
                )
            )
            plan.append(
                self._plan_entry(event.bank, victim, prof, mech, weight, None)
            )

        # Non-sandwiched neighbors of src and dst see single-sided hits;
        # the copy does not boost them (Obs. 5: single-sided CoMRA tracks
        # far double-sided RowHammer), but tAggOff does.
        for aggressor in (src, dst):
            aggoff = self._aggoff_factor(event.t_agg_off_ns.get(aggressor))
            for distance, dist_weight in self._distance_weights():
                for victim in self.geometry.neighbors(aggressor, distance):
                    if victim in sandwiched:
                        continue
                    prof = self.profile(event.bank, victim)
                    side = 1 if aggressor > victim else -1
                    weight = 0.5 * dist_weight * aggoff
                    if aggressor == dst:
                        weight *= prof.copy_dir_noise[forward]
                    weight *= self._common_factors(
                        prof, mech, event.t_agg_on_ns, temperature_c,
                        aggressor_pattern, simra_count=None,
                    )
                    plan.append(
                        self._plan_entry(event.bank, victim, prof, mech, weight, side)
                    )
        return plan

    # -- SiMRA group ------------------------------------------------------
    def _apply_simra(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
        times: float,
    ) -> None:
        if not self.supports_simra:
            return
        key = (
            "simra", event.bank, event.rows, temperature_c, aggressor_pattern,
            self._event_time_key(event),
        )
        plan = self._plan_lookup(key)
        if plan is None:
            plan = self._build_simra_plan(event, temperature_c, aggressor_pattern)
            self._plan_store(key, plan)
        self._apply_plan(plan, times)

    def _build_simra_plan(
        self,
        event: ActivationEvent,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
    ) -> list:
        group = set(event.rows)
        count = len(group)
        mech = Mechanism.SIMRA
        preact = self._simra_preact_factor(event.pre_to_act_ns)
        plan = []

        victims: set[int] = set()
        for aggressor in group:
            for distance in (1, 2):
                for victim in self.geometry.neighbors(aggressor, distance):
                    if victim not in group:
                        victims.add(victim)

        for victim in sorted(victims):
            prof = self.profile(event.bank, victim)
            below = victim - 1 in group and self.geometry.same_subarray(victim, victim - 1)
            above = victim + 1 in group and self.geometry.same_subarray(victim, victim + 1)
            partial = self._simra_partial_factor(prof, event.simra_act_to_pre_ns)
            common = self._common_factors(
                prof, mech, event.t_agg_on_ns, temperature_c,
                aggressor_pattern, simra_count=count,
            )
            if below and above:
                ratio = prof.simra_ratio.get(count) or 1.0
                weight = ratio * preact * partial * common
                side = None
            elif below or above:
                side = -1 if below else 1
                ss_mult = self.vendor_cal.simra_ss_mult.get(count, 1.0)
                weight = 0.5 * ss_mult * preact * partial * common
            else:
                # distance-2 only: treat as an (unsynergized) remote hit
                side = 1
                weight = (
                    0.5 * self.vendor_cal.distance2_weight * preact * partial
                    * common
                ) / prof.ss_penalty
            plan.append(
                self._plan_entry(event.bank, victim, prof, mech, weight, side)
            )
        return plan

    # -- victim-relative plan skeletons --------------------------------
    #
    # Batched trace translation re-resolves every captured event's plan
    # for rows shifted by a constant delta.  The event *shape* -- neighbor
    # offsets, distance weights, timing factors -- is shift-invariant;
    # only the per-victim profile terms change.  A skeleton captures the
    # shape once per captured event (shared by every translation of its
    # trace), and materialization replays the reference builders' exact
    # float-operation sequence against the shifted rows, so a
    # materialized plan is bit-identical to the ``_build_*_plan`` output
    # and is stored under the same cache keys.

    def plan_skeleton(self, event: ActivationEvent) -> Optional[tuple]:
        """Victim-relative structural skeleton of an event's plan.

        Captures every row-independent term of the plan build -- press
        factor, tAggOff factors, copy latency/direction -- so translation
        pays only the per-victim profile math.  The per-row gaps in
        ``t_agg_off_ns`` are shift-invariant by the translation contract
        (identical stream timing), so their factors are skeleton
        constants.  Returns None for SiMRA, whose charge-sharing side
        effects a plan cannot express.
        """
        kind = event.kind
        if kind is ActivationEvent.Kind.SINGLE:
            (aggressor,) = event.rows
            mech = Mechanism.ROWHAMMER
            pkey = (mech, event.t_agg_on_ns)
            press_base = self._press_base_cache.get(pkey)
            if press_base is None:
                anchors = self.vendor_cal.press_anchors[mech]
                press_base = log_interp(max(event.t_agg_on_ns, 36.0), anchors)
                self._press_base_cache[pkey] = press_base
            aggoff = self._aggoff_factor(event.t_agg_off_ns.get(aggressor))
            return ("single", event.t_agg_on_ns, press_base, aggoff)
        if kind is ActivationEvent.Kind.COMRA_PAIR:
            src, dst = event.rows
            return (
                "comra",
                event.t_agg_on_ns,
                self._comra_latency_factor(event.pre_to_act_ns or 7.5),
                src < dst,
                dst - src,
                self._aggoff_factor(event.t_agg_off_ns.get(src)),
                self._aggoff_factor(event.t_agg_off_ns.get(dst)),
            )
        return None

    def materialize_plan(
        self,
        skel: tuple,
        bank: int,
        row0: int,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
    ) -> list:
        """Materialize a skeleton for the event anchored at ``row0``.

        ``row0`` is the shifted first event row (the aggressor for single
        events, the copy source for CoMRA pairs).  Replays the reference
        builders' exact float-operation sequence -- including the
        neighbor clipping at subarray edges and the shared
        ``"single-base"`` sub-cache -- so the result is bit-identical to
        ``_build_single_plan`` / ``_build_comra_plan`` on the shifted
        event.
        """
        neighbors = self.geometry.neighbors
        if skel[0] == "single":
            _kind, t_agg_on, press_base, aggoff = skel
            mech = Mechanism.ROWHAMMER
            base_key = (
                "single-base", bank, row0,
                press_base, temperature_c, aggressor_pattern,
            )
            base = self._plan_lookup(base_key)
            if base is None:
                # the _common_factors / _plan_entry bodies, inlined with
                # the identical float-operation sequence: translation
                # materializes hundreds of these per sweep and the call
                # overhead dominated the actual arithmetic
                profiles = self._profiles
                tpr_cache = self._tpr_cache
                slot_of = self.ledger.slot
                dominant = self.vendor_cal.dominant_direction[mech]
                p_dom = POOL_INDEX[(mech, dominant)]
                p_oth = POOL_INDEX[(mech, dominant.opposite)]
                base = []
                for distance, dist_weight in self._distance_weights():
                    for victim in neighbors(row0, distance):
                        prof = profiles.get((bank, victim))
                        if prof is None:
                            prof = self.profile(bank, victim)
                        if press_base <= 1.0:
                            press = press_base
                        else:
                            press = 1.0 + (press_base - 1.0) * prof.press_noise
                        tkey = (
                            id(prof), mech, temperature_c,
                            aggressor_pattern, None,
                        )
                        tc = tpr_cache.get(tkey)
                        if tc is not None and tc[0] is prof:
                            tpr = tc[1]
                        else:
                            tpr = (
                                self._temperature_factor(
                                    prof, mech, temperature_c
                                )
                                * self._pattern_factor(
                                    prof, mech, aggressor_pattern
                                )
                                * self._region_factor(prof, mech, None)
                            )
                            tpr_cache[tkey] = (prof, tpr)
                        weight = 0.5 * dist_weight * (press * tpr)
                        ratio = prof.direction_ratio.get(mech, 1.0)
                        if ratio < 1.0:
                            ratio = 1.0
                        increment = weight / prof.hc_ref
                        base.append((
                            slot_of(bank, victim),
                            1 if row0 > victim else -1,
                            p_dom,
                            p_oth,
                            increment,
                            increment / ratio,
                            prof.ss_penalty,
                        ))
                self._plan_store(base_key, base)
            if aggoff == 1.0:
                return base
            return [
                (slot, side, dom, oth, inc_dom * aggoff, inc_oth * aggoff, pen)
                for slot, side, dom, oth, inc_dom, inc_oth, pen in base
            ]
        (
            _kind, t_agg_on, latency, forward,
            span, aggoff_src, aggoff_dst,
        ) = skel
        src = row0
        dst = row0 + span
        mech = Mechanism.COMRA
        plan = []
        sandwich_victim = None
        if abs(span) == 2 and self.geometry.same_subarray(src, dst):
            sandwich_victim = (src + dst) // 2
            prof = self.profile(bank, sandwich_victim)
            weight = (
                prof.comra_ratio
                * latency
                * prof.copy_dir_noise[forward]
                * self._common_factors(
                    prof, mech, t_agg_on, temperature_c,
                    aggressor_pattern, simra_count=None,
                )
            )
            plan.append(
                self._plan_entry(bank, sandwich_victim, prof, mech, weight, None)
            )
        for aggressor, aggoff in ((src, aggoff_src), (dst, aggoff_dst)):
            for distance, dist_weight in self._distance_weights():
                for victim in neighbors(aggressor, distance):
                    if victim == sandwich_victim:
                        continue
                    prof = self.profile(bank, victim)
                    side = 1 if aggressor > victim else -1
                    weight = 0.5 * dist_weight * aggoff
                    if aggressor == dst:
                        weight *= prof.copy_dir_noise[forward]
                    weight *= self._common_factors(
                        prof, mech, t_agg_on, temperature_c,
                        aggressor_pattern, simra_count=None,
                    )
                    plan.append(
                        self._plan_entry(bank, victim, prof, mech, weight, side)
                    )
        return plan

    # ------------------------------------------------------------------
    def _distance_weights(self) -> tuple[tuple[int, float], ...]:
        return ((1, 1.0), (2, self.vendor_cal.distance2_weight))

    def _common_factors(
        self,
        prof: RowProfile,
        mechanism: Mechanism,
        t_agg_on_ns: float,
        temperature_c: float,
        aggressor_pattern: Optional[DataPattern],
        simra_count: Optional[int],
    ) -> float:
        # Every input is a pure value: the product is memoized per profile,
        # which collapses the repeated per-neighbor factor math across the
        # many plans that visit the same row under identical conditions
        # (same pattern/temperature/timing).  The profile is keyed by id()
        # and pinned in the cache entry so the id stays valid.
        key = (id(prof), mechanism, t_agg_on_ns, temperature_c,
               aggressor_pattern, simra_count)
        cached = self._factor_cache.get(key)
        if cached is not None and cached[0] is prof:
            return cached[1]
        # Two sub-memos keep a full miss cheap: the tAggOn interpolation is
        # profile-independent (one value per distinct on-time), and the
        # temperature/pattern/region product is tAggOn-independent (one
        # value per profile under fixed conditions) -- so plans for the
        # same rows at different on-times, the common case when hammer and
        # prologue-write events visit one neighborhood, recompute neither.
        pkey = (mechanism, t_agg_on_ns)
        press_base = self._press_base_cache.get(pkey)
        if press_base is None:
            anchors = self.vendor_cal.press_anchors[mechanism]
            press_base = log_interp(max(t_agg_on_ns, 36.0), anchors)
            self._press_base_cache[pkey] = press_base
        if press_base <= 1.0:
            press = press_base
        else:
            press = 1.0 + (press_base - 1.0) * prof.press_noise
        tkey = (id(prof), mechanism, temperature_c, aggressor_pattern,
                simra_count)
        tpr_cached = self._tpr_cache.get(tkey)
        if tpr_cached is not None and tpr_cached[0] is prof:
            tpr = tpr_cached[1]
        else:
            tpr = (
                self._temperature_factor(prof, mechanism, temperature_c)
                * self._pattern_factor(prof, mechanism, aggressor_pattern)
                * self._region_factor(prof, mechanism, simra_count)
            )
            self._tpr_cache[tkey] = (prof, tpr)
        value = press * tpr
        self._factor_cache[key] = (prof, value)
        return value

    # ------------------------------------------------------------------
    # Bitflip materialization
    # ------------------------------------------------------------------
    def realize_flips(self, bank: int, row: int, data: np.ndarray) -> int:
        """Apply any newly-earned bitflips to a row's stored bytes.

        Returns the number of bits flipped by this call.  Idempotent at a
        fixed damage level: flips already applied are tracked per direction.
        """
        led = self.ledger
        slot = led.peek(bank, row)
        if slot is None:
            return 0
        order = led.pool_order[slot]
        if not order:
            return 0
        # Cheap early-out: no direction can have crossed its threshold if
        # even the eta-free damage total is far below 1.  pool_order keeps
        # the reference dict's insertion order, so the float accumulation
        # sequence matches sum(damage.values()) exactly.
        dmg = led.dmg
        base = slot * N_POOLS
        total = 0.0
        for pool in order:
            total += dmg[base + pool]
        if total < 0.999:
            return 0
        prof = self.profile(bank, row)
        total_new = 0
        bits = None
        flips_mv = led.flips_mv
        s2 = slot + slot
        flipped_cells = led.flipped[slot]
        for direction in FlipDirection:
            effective = self.coupled_damage(bank, row, direction)
            if effective < 1.0:
                continue
            if bits is None:
                bits = np.unpackbits(data)
            target = self._flip_target(prof, effective)
            already = flips_mv[s2 + DIR_INDEX[direction]]
            needed = target - already
            if needed <= 0:
                continue
            flipped = self._flip_cells(
                bank, row, bits, direction, needed, flipped_cells
            )
            flips_mv[s2 + DIR_INDEX[direction]] = already + flipped
            total_new += flipped
        if total_new and bits is not None:
            data[:] = np.packbits(bits)
        return total_new

    def _flip_target(self, prof: RowProfile, effective_damage: float) -> int:
        """How many cells of a direction should have flipped at this damage.

        Per-cell thresholds are lognormal around the row threshold: the
        weakest cell flips at damage 1.0, and the flip count follows the
        threshold CDF above that (drives Fig. 24's flip-count scale).
        """
        sigma = self.vendor_cal.cell_sigma
        # Center the per-cell threshold distribution 2.5 sigma above the
        # row threshold: the weakest cell flips at damage 1.0 (CDF ~ 0.6%),
        # and counts ramp along the lognormal CDF as damage grows.
        quantile = normal_cdf((math.log(effective_damage) - 2.5 * sigma) / sigma)
        extra = int(prof.weak_cells * quantile)
        return max(1, extra)

    def _flip_cells(
        self,
        bank: int,
        row: int,
        bits: np.ndarray,
        direction: FlipDirection,
        needed: int,
        already_flipped: set[int],
    ) -> int:
        """Flip the first ``needed`` vulnerable cells in this row's order.

        ``already_flipped`` cells are off limits: a cell that flipped since
        the last restore has moved its charge and cannot chatter back under
        the opposite-direction damage within the same epoch.
        """
        order = self._flip_order(bank, row, direction)
        # Vectorized selection: candidate mask over the cached permutation,
        # first `needed` survivors -- the same flip set as walking `order`
        # cell by cell with per-cell `in`-checks.
        candidates = bits[order] == direction.vulnerable_bit
        if already_flipped:
            blocked = np.zeros(bits.shape[0], dtype=bool)
            blocked[list(already_flipped)] = True
            candidates &= ~blocked[order]
        picks = np.flatnonzero(candidates)
        if picks.size > needed:
            picks = picks[:needed]
        if picks.size == 0:
            return 0
        cells = order[picks]
        bits[cells] ^= 1
        already_flipped.update(map(int, cells))
        return int(cells.size)

    def _flip_order(self, bank: int, row: int, direction: FlipDirection) -> np.ndarray:
        key = (bank, row, direction)
        order = self._flip_orders.get(key)
        if order is None:
            rng = rng_for(
                self.calibration.config_id, self.serial, bank, row,
                "flip-order", direction.value,
            )
            order = rng.permutation(self.geometry.columns)
            self._flip_orders[key] = order
        return order

    # ------------------------------------------------------------------
    # Oracles used by tests and the WCDP fast path
    # ------------------------------------------------------------------
    def reference_hcfirst(self, bank: int, row: int, mechanism: Mechanism,
                          simra_count: int = 4) -> float:
        """Analytic double-sided HC_first at reference conditions.

        This is the model's ground truth; the measurement pipeline should
        land within bisection precision of it.
        """
        prof = self.profile(bank, row)
        region = self._region_factor(
            prof, mechanism, simra_count if mechanism is Mechanism.SIMRA else None
        )
        if mechanism is Mechanism.ROWHAMMER:
            weight = region
        elif mechanism is Mechanism.COMRA:
            weight = prof.comra_ratio * region
        else:
            if not self.supports_simra:
                return math.inf
            weight = (prof.simra_ratio.get(simra_count) or 1.0) * region
        best_pattern = self.worst_case_pattern(bank, row, mechanism)
        weight *= self._pattern_factor(prof, mechanism, best_pattern)
        return prof.hc_ref / weight

    def reference_hcfirst_simra_edge(
        self, bank: int, row: int, simra_count: int = 4
    ) -> float:
        """Analytic HC_first for a *single-sided* SiMRA group-edge victim.

        :meth:`reference_hcfirst` models the sandwiched interior victim of
        a co-activation; rows adjacent to a group's outer edge see only
        one aggressor wordline and are weighted ``0.5 * simra_ss_mult``
        instead of the sandwiched ratio.  Reliability workloads that park
        data next to a SiMRA group use this for honest weakest-victim
        predictions.
        """
        if not self.supports_simra:
            return math.inf
        prof = self.profile(bank, row)
        region = self._region_factor(prof, Mechanism.SIMRA, simra_count)
        ss_mult = self.vendor_cal.simra_ss_mult.get(simra_count, 1.0)
        weight = 0.5 * ss_mult * region
        best_pattern = self.worst_case_pattern(bank, row, Mechanism.SIMRA)
        weight *= self._pattern_factor(prof, Mechanism.SIMRA, best_pattern)
        if weight <= 0:
            return math.inf
        return prof.hc_ref / weight

    def worst_case_pattern(
        self, bank: int, row: int, mechanism: Mechanism
    ) -> DataPattern:
        """The aggressor pattern minimizing HC_first for this victim row.

        Experiments can either *measure* WCDP the way the paper does (four
        HC_first searches) or consult this oracle for speed; tests verify
        both agree.
        """
        prof = self.profile(bank, row)
        ratio = max(prof.direction_ratio.get(mechanism, 1.0), 1.0)
        dominant = self.vendor_cal.dominant_direction[mechanism]

        def effectiveness(pattern: DataPattern) -> float:
            coupling = self._pattern_factor(prof, mechanism, pattern)
            victim = pattern.negated
            # Victim polarity availability: the dominant direction needs
            # cells storing its vulnerable bit.
            if victim.ones_fraction in (0.0, 1.0):
                has_dominant = (
                    victim.ones_fraction == 1.0
                    if dominant is FlipDirection.ONE_TO_ZERO
                    else victim.ones_fraction == 0.0
                )
                direction_weight = 1.0 if has_dominant else 1.0 / ratio
            else:
                direction_weight = 1.0
            return coupling * direction_weight

        return max(ALL_PATTERNS, key=effectiveness)

    # ------------------------------------------------------------------
    # Vectorized oracles (whole population-table slices at once)
    # ------------------------------------------------------------------
    def _gather(self, bank: int, rows: Sequence[int]):
        """Group ``rows`` by subarray while preserving input order.

        Yields ``(table, offsets, positions)``: ``offsets`` index into the
        subarray's population table; ``positions`` index into the caller's
        output array, so scattered writes reassemble the input order.
        """
        rows_arr = np.asarray(rows, dtype=np.int64)
        subs = rows_arr // self.geometry.rows_per_subarray
        for sub in np.unique(subs):
            positions = np.nonzero(subs == sub)[0]
            table = self.population(bank, int(sub))
            yield table, rows_arr[positions] - table.row_start, positions

    def _pattern_stacks(
        self, table: PopulationTable, mechanism: Mechanism, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern ``(coupling, effectiveness)`` stacks, shape (P, R).

        The float operation order mirrors the scalar ``_pattern_factor`` /
        ``worst_case_pattern`` pair exactly, so each element is
        bit-identical to the corresponding scalar result.
        """
        vc = self.vendor_cal
        coupling_table = vc.pattern_coupling.get(mechanism) or {}
        dominant = vc.dominant_direction[mechanism]
        inv_ratio = 1.0 / np.maximum(
            table.direction_ratio[mechanism][offsets], 1.0
        )
        coupling = np.empty((len(ALL_PATTERNS), len(offsets)))
        eff = np.empty_like(coupling)
        for i, pattern in enumerate(ALL_PATTERNS):
            coupling[i] = (
                coupling_table.get(pattern, 0.9)
                * table.pattern_noise[pattern][offsets]
            )
            victim = pattern.negated
            if victim.ones_fraction in (0.0, 1.0):
                has_dominant = (
                    victim.ones_fraction == 1.0
                    if dominant is FlipDirection.ONE_TO_ZERO
                    else victim.ones_fraction == 0.0
                )
                eff[i] = coupling[i] if has_dominant else coupling[i] * inv_ratio
            else:
                eff[i] = coupling[i]
        return coupling, eff

    def worst_case_patterns(
        self, bank: int, rows: Sequence[int], mechanism: Mechanism
    ) -> list[DataPattern]:
        """Vectorized :meth:`worst_case_pattern` for a batch of rows.

        ``np.argmax`` keeps the first maximal pattern, matching Python's
        ``max(..., key=...)`` tie-breaking over ``ALL_PATTERNS`` order.
        """
        out: list[DataPattern] = [ALL_PATTERNS[0]] * len(rows)
        for table, offsets, positions in self._gather(bank, rows):
            _, eff = self._pattern_stacks(table, mechanism, offsets)
            best = np.argmax(eff, axis=0)
            for pos, idx in zip(positions, best):
                out[pos] = ALL_PATTERNS[idx]
        return out

    def reference_hcfirst_array(
        self,
        bank: int,
        rows: Sequence[int],
        mechanism: Mechanism,
        simra_count: int = 4,
    ) -> np.ndarray:
        """Vectorized :meth:`reference_hcfirst`: one array op per factor.

        Experiments use this to pre-rank candidate victims; each element
        equals the scalar oracle's result for the same row bit for bit.
        """
        out = np.empty(len(rows))
        if mechanism is Mechanism.SIMRA and not self.supports_simra:
            out.fill(math.inf)
            return out
        vc = self.vendor_cal
        if (
            mechanism is Mechanism.SIMRA
            and simra_count is not None
            and simra_count in vc.simra_spatial_by_count
        ):
            spatial = vc.simra_spatial_by_count[simra_count]
        else:
            spatial = vc.spatial_profile[mechanism]
        spatial_arr = np.asarray(spatial, dtype=float)
        for table, offsets, positions in self._gather(bank, rows):
            region = spatial_arr[table.region_index[offsets]]
            if mechanism is Mechanism.ROWHAMMER:
                weight = region
            elif mechanism is Mechanism.COMRA:
                weight = table.comra_ratio[offsets] * region
            else:
                arr = table.simra_ratio.get(simra_count)
                if arr is None:
                    ratio = np.ones(len(offsets))
                else:
                    ratio = arr[offsets]
                    # mirror the scalar path's ``... or 1.0``
                    ratio = np.where(ratio != 0.0, ratio, 1.0)
                weight = ratio * region
            coupling, eff = self._pattern_stacks(table, mechanism, offsets)
            best = np.argmax(eff, axis=0)
            weight = weight * coupling[best, np.arange(len(offsets))]
            out[positions] = table.hc_ref[offsets] / weight
        return out



#: fill byte -> pattern, for the first-byte probe in classify_pattern
_PATTERN_BY_BYTE = {pattern.byte: pattern for pattern in ALL_PATTERNS}


def classify_pattern(data: np.ndarray) -> Optional[DataPattern]:
    """Best-effort classification of a row's bytes as a standard pattern.

    A row classifies as a pattern iff that pattern's fill byte covers at
    least 90% of the row -- such a byte is automatically the row's
    majority byte, so only the known fill bytes need counting.

    At most one byte can cover >=90% of the row, so probing the pattern
    whose fill byte matches ``data[0]`` first (almost always the filled
    pattern on the classification hot path) returns the same pattern as
    scanning ``ALL_PATTERNS`` in order, one count instead of up to four.
    """
    threshold = 0.9 * data.size
    if threshold <= 0:
        return None
    probe = _PATTERN_BY_BYTE.get(int(data[0]))
    if probe is not None and int(
        np.count_nonzero(data == probe.byte)
    ) >= threshold:
        return probe
    for pattern in ALL_PATTERNS:
        if pattern is probe:
            continue
        if int(np.count_nonzero(data == pattern.byte)) >= threshold:
            return pattern
    return None
