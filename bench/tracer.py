"""Span tracer for the isacsim benchmark.

The tracer wraps the public functions listed in ``TRACED`` from outside the
package: every binding of such a function in any loaded ``isacsim`` module
is replaced, which also covers names bound by ``from .x import f`` (uplink
binds ``ul_sr``/``build_waveform`` that way, sensing binds ``waterfill``/
``hermitian_eig``).  A span's self time is its duration minus the time of
the traced spans it directly caused.  Spans are aggregated per function in
memory; ``layer_metrics`` turns the aggregates into the per-layer metrics
named in BENCHMARK.json.

``Tracer(COUNTED)`` wraps only the estimators and the sampler, which are
called a few hundred times per experiment: enough to count the trials the
run computed and to spot covariance cache hits in untimed detail.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer (= isacsim module) -> traced public functions
TRACED = {
    "channel": ("sample_channel_block",),
    "downlink": ("dl_sum_rate_batch", "dual_mac_power_alloc", "dl_sum_rate",
                 "mac_to_bc_covariance", "estimate_mean_covariance",
                 "dl_outage_prob", "dl_outage_prob_fdsac", "dl_ecr",
                 "dl_ecr_fdsac"),
    "uplink": ("ul_rate_batch", "ul_outage_prob", "ul_outage_prob_fdsac",
               "ul_ecr", "ul_ecr_fdsac", "sensing_profile"),
    "sensing": ("dl_sr", "ul_sr", "fdsac_sr", "build_waveform"),
    "numerics": ("waterfill", "hermitian_eig"),
    "region": ("dl_isac_region", "dl_fdsac_region"),
    "cli": ("run",),
}

DL_MC = ("downlink.dl_outage_prob", "downlink.dl_outage_prob_fdsac",
         "downlink.dl_ecr", "downlink.dl_ecr_fdsac")
UL_MC = ("uplink.ul_outage_prob", "uplink.ul_outage_prob_fdsac",
         "uplink.ul_ecr", "uplink.ul_ecr_fdsac")
REGIONS = ("region.dl_isac_region", "region.dl_fdsac_region")
COVARIANCE = "downlink.estimate_mean_covariance"
# what every run wraps, traced or not
COUNTED = ("channel.sample_channel_block", COVARIANCE) + DL_MC + UL_MC

# The estimators return a closed-form value without computing a trial when
# one of these arguments is 0 (zero power, bandwidth share or target).
SHORTCUT_ARGS = ("r_target", "alpha", "p_c")

# Spans of one group nest (ul_sr calls dl_sr, dl_sum_rate calls
# dual_mac_power_alloc); a group's time is that of its outermost spans.
GROUPS = {
    "sensing": ("sensing.dl_sr", "sensing.ul_sr", "sensing.fdsac_sr",
                "sensing.build_waveform", "uplink.sensing_profile"),
    "dual_mac": ("downlink.dual_mac_power_alloc", "downlink.dl_sum_rate"),
}


class Stat:
    """Calls, total time, self time and items (trials) of one traced function."""

    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    """Collects spans of the traced functions of one process."""

    def __init__(self, names=None):
        self.stats = {f"{layer}.{name}": Stat()
                      for layer, names in TRACED.items() for name in names}
        self.names = set(self.stats if names is None else names)
        self.group_time = Counter()
        self.group_calls = Counter()
        self.block_keys = Counter()   # (seed, stream, block) -> times drawn
        self.trials_drawn = 0
        self.trials_used = 0          # trials the estimates computed
        self.covariance_trials = 0    # of which in the covariance loop
        self.covariance_blocks = 0    # blocks drawn from the covariance stream
        self.covariance_cache_hits = 0
        self.region_points = 0
        self._covariance_stream = None
        self._covariance_blocks_seen = 0
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions in loaded isacsim modules."""
        self._covariance_stream = importlib.import_module("isacsim.channel").STREAM_COVARIANCE
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"isacsim.{layer}")
            for name in names:
                if f"{layer}.{name}" in self.names:
                    fn = getattr(module, name)
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "isacsim" and not mod_name.startswith("isacsim."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        group = next((g for g, members in GROUPS.items() if name in members), None)
        after = getattr(self, "_after_" + name.split(".")[1], None)
        signature = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = group is not None and all(f[0] != group for f in stack)
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if outermost:
                    self.group_time[group] += duration
                    self.group_calls[group] += 1
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(stat, bound.arguments, result)
            return result

        return span

    # -- counters taken from arguments and results -------------------------

    def _after_sample_channel_block(self, stat, arguments, result):
        stream = arguments["stream"]
        self.block_keys[(arguments["seed"], stream, arguments["block"])] += 1
        if stream == self._covariance_stream:
            self.covariance_blocks += 1
        self.trials_drawn += len(result)
        stat.items += len(result)

    def _after_dl_sum_rate_batch(self, stat, arguments, result):
        stat.items += len(result)

    _after_ul_rate_batch = _after_dl_sum_rate_batch

    def _after_estimate(self, stat, arguments, result):
        if all(arguments.get(arg) != 0.0 for arg in SHORTCUT_ARGS):
            self.trials_used += result.trials

    _after_dl_outage_prob = _after_dl_outage_prob_fdsac = _after_estimate
    _after_dl_ecr = _after_dl_ecr_fdsac = _after_estimate
    _after_ul_outage_prob = _after_ul_outage_prob_fdsac = _after_estimate
    _after_ul_ecr = _after_ul_ecr_fdsac = _after_estimate

    def _after_estimate_mean_covariance(self, stat, arguments, result):
        # Only this function draws from the covariance stream, and it does
        # not nest, so the blocks drawn since the last call are this call's.
        drawn = self.covariance_blocks - self._covariance_blocks_seen
        self._covariance_blocks_seen = self.covariance_blocks
        if result.p_c == 0.0:
            return  # closed form: no trial computed
        if not drawn:
            self.covariance_cache_hits += 1
            return
        self.trials_used += result.trials_used
        self.covariance_trials += result.trials_used

    def _after_dl_isac_region(self, stat, arguments, result):
        self.region_points += len(result.grid)

    _after_dl_fdsac_region = _after_dl_isac_region

    # -- report ------------------------------------------------------------

    def spans(self):
        """Per-function aggregates: calls, total_s, self_s, items."""
        return {name: {"calls": s.calls, "total_s": s.total,
                       "self_s": s.self_time, "items": s.items}
                for name, s in self.stats.items()}

    def layer_metrics(self):
        """The per-layer metrics of one traced run (times in seconds)."""
        st = self.stats
        sample = st["channel.sample_channel_block"]
        dl_rate = st["downlink.dl_sum_rate_batch"]
        ul_rate = st["uplink.ul_rate_batch"]
        dual_mac = st["downlink.dual_mac_power_alloc"]
        duality = st["downlink.mac_to_bc_covariance"]
        cov = st[COVARIANCE]
        blocks = sum(self.block_keys.values())
        return {
            "channel.sample_s": sample.total,
            "channel.ns_per_trial": _ratio(sample.total * 1e9, sample.items),
            "channel.blocks_drawn": blocks,
            "channel.redraw_ratio": _ratio(blocks, len(self.block_keys)),
            "channel.use_ratio": _ratio(self.trials_used, self.trials_drawn),
            "downlink.rate_s": dl_rate.self_time,
            "downlink.rate_ns_per_trial": _ratio(dl_rate.self_time * 1e9, dl_rate.items),
            "downlink.dual_mac_s": self.group_time["dual_mac"],
            "downlink.dual_mac_calls": dual_mac.calls,
            "downlink.dual_mac_us_per_call": _ratio(self.group_time["dual_mac"] * 1e6,
                                                    dual_mac.calls),
            "downlink.duality_us_per_call": _ratio(duality.total * 1e6, duality.calls),
            "downlink.covariance_s": cov.total,
            "downlink.covariance_us_per_trial": _ratio(cov.total * 1e6,
                                                       self.covariance_trials),
            "downlink.covariance_cache_hits": self.covariance_cache_hits,
            "downlink.mc_self_s": sum(st[n].self_time for n in DL_MC),
            "uplink.mc_self_s": sum(st[n].self_time for n in UL_MC),
            "uplink.rate_s": ul_rate.total,
            "uplink.rate_ns_per_trial": _ratio(ul_rate.total * 1e9, ul_rate.items),
            "sensing.solves": self.group_calls["sensing"],
            "sensing.us_per_solve": _ratio(self.group_time["sensing"] * 1e6,
                                           self.group_calls["sensing"]),
            "numerics.waterfill_calls": st["numerics.waterfill"].calls,
            "numerics.eig_calls": st["numerics.hermitian_eig"].calls,
            "region.points": self.region_points,
            "region.self_s": sum(st[n].self_time for n in REGIONS),
            "cli.self_s": st["cli.run"].self_time,
        }


def _ratio(num, den):
    return num / den if den else 0.0
