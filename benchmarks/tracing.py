"""Spans and counters recorded from outside the zcrate package.

The tracer wraps public functions and rebinds the wrapper in every module
namespace that holds the original object, so calls made through
``zcrate.cli.deletion_census``, ``zcrate.level_crossing.acf_tail_moment`` or
``scipy.integrate.quad`` are all seen.  Each call becomes one span with its
start, end and the span that was open when it began (its parent).  Hooks
keep raw arguments or results (FFT lengths, match reports, ...) in memory;
derived quantities are computed only in :meth:`Tracer.layer_metrics`, after
the timed work has finished.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path


def largest_prime_factor(n: int) -> int:
    """Largest prime factor of n >= 2 (trial division; n is a few million at most)."""
    best, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            best, n = d, n // d
        d += 1 if d == 2 else 2
    return max(best, n) if n > 1 else best


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.fft_lengths: list[tuple[str, int]] = []
        self.samples = 0
        self.match_tx = 0
        self.match_matched = 0
        self.match_unassigned = 0
        self.acf_args: list[tuple] = []
        self.excluded_mass: list[float] = []
        self.clamped_points = 0
        self.csv_bytes = 0

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Return fn wrapped so that each call records a span named ``name``.

        ``hook(args, kwargs, result)`` runs after the span has closed.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _on_synthesize(self, args, kwargs, result):
        self.samples += len(result)

    def _on_ideal_lp(self, args, kwargs, result):
        self.fft_lengths.append(("ideal_lp", len(result)))

    def _on_noise(self, args, kwargs, result):
        n0 = args[2] if len(args) > 2 else kwargs["N0"]
        if n0 > 0:  # N0 == 0 returns zeros without an FFT
            self.fft_lengths.append(("gen_bandlimited_noise", len(result)))

    def _on_match(self, args, kwargs, result):
        counts = result.per_symbol_counts
        self.match_tx += int(counts.size)
        self.match_matched += int((counts > 0).sum())
        self.match_unassigned += int(result.n_unassigned_rx)

    def _on_acf(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        r = args[1] if len(args) > 1 else kwargs["r"]
        kind = args[2] if len(args) > 2 else kwargs.get("kind", "cos")
        self.acf_args.append((int(m), float(r), kind))

    def _on_vcc(self, args, kwargs, result):
        self.excluded_mass.append(float(result.excluded_mass))

    def _on_bound_report(self, args, kwargs, result):
        self.clamped_points += bool(result.clamped)

    def _on_write_csv(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.csv_bytes += Path(path).stat().st_size

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every zcrate module and in scipy.integrate."""
        import scipy.integrate
        import zcrate.bounds
        import zcrate.cli
        import zcrate.distortion
        import zcrate.level_crossing
        import zcrate.params
        import zcrate.simulate

        sim = zcrate.simulate
        targets = [
            ("simulate.run_chain", sim.run_chain, None),
            ("simulate.deletion_census", sim.deletion_census, None),
            ("simulate.lp_distortion_stats", sim.lp_distortion_stats, None),
            ("simulate.synthesize", sim.synthesize, self._on_synthesize),
            ("simulate.ideal_lp", sim.ideal_lp, self._on_ideal_lp),
            ("simulate.gen_bandlimited_noise", sim.gen_bandlimited_noise, self._on_noise),
            ("simulate.extract_crossings", sim.extract_crossings, None),
            ("simulate.match_crossings", sim.match_crossings, self._on_match),
            ("params.sample_input_sequence", zcrate.params.sample_input_sequence, None),
            ("level_crossing.expected_curve_crossings",
             zcrate.level_crossing.expected_curve_crossings, None),
            ("level_crossing.variance_curve_crossings",
             zcrate.level_crossing.variance_curve_crossings, self._on_vcc),
            ("distortion.acf_tail_moment", zcrate.distortion.acf_tail_moment, self._on_acf),
            ("quadrature.quadpack", scipy.integrate.quad, None),
            ("bounds.bound_report", zcrate.bounds.bound_report, self._on_bound_report),
            ("bounds.k_opt", zcrate.bounds.k_opt, None),
            ("cli.write_csv", zcrate.cli.write_csv, self._on_write_csv),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zcrate" or name.startswith("zcrate."))]
        modules.append(scipy.integrate)
        for name, original, hook in targets:
            wrapped = self.span(name, original, hook)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no module binds {name}")

    # -- summaries --------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        parents: dict[str, set] = defaultdict(set)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[i]
            parents[name].add(self.spans[parent][0] if parent >= 0 else None)
        for name, row in table.items():
            row["parents"] = sorted(p for p in parents[name] if p is not None)
        return dict(table)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark; counters marked computed are
        derived here from the raw values the hooks kept."""
        table = self.span_table()

        def s(name):
            return table.get(name, {}).get("s", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        out: dict[str, float] = {}
        for stage in ("synthesize", "ideal_lp", "gen_bandlimited_noise",
                      "extract_crossings", "match_crossings"):
            out[f"simulate.{stage}.s"] = s(f"simulate.{stage}")
            out[f"simulate.{stage}.calls"] = calls(f"simulate.{stage}")
        out["simulate.samples"] = self.samples
        lengths = {n for _, n in self.fft_lengths}
        out["simulate.fft_len_max"] = max(lengths, default=0)
        # computed: largest prime factor over every distinct FFT length
        out["simulate.fft_len_max_prime"] = max(
            (largest_prime_factor(n) for n in lengths if n > 1), default=0)
        # computed: matched transmitted crossings over transmitted crossings
        out["simulate.match.matched_frac"] = (
            self.match_matched / self.match_tx if self.match_tx else 0.0)
        out["simulate.match.unassigned_rx"] = self.match_unassigned
        vcc = "level_crossing.variance_curve_crossings"
        out[f"{vcc}.calls"] = calls(vcc)
        out[f"{vcc}.s_per_point"] = s(vcc) / calls(vcc) if calls(vcc) else 0.0
        out["level_crossing.excluded_mass_max"] = max(self.excluded_mass, default=0.0)
        acf = "distortion.acf_tail_moment"
        out[f"{acf}.calls"] = calls(acf)
        out[f"{acf}.s"] = s(acf)
        # computed: distinct (m, r, kind) arguments over calls
        out[f"{acf}.distinct_frac"] = (
            len(set(self.acf_args)) / len(self.acf_args) if self.acf_args else 0.0)
        out["quadrature.quadpack_calls"] = calls("quadrature.quadpack")
        out["quadrature.quadpack.s"] = s("quadrature.quadpack")
        br = "bounds.bound_report"
        out[f"{br}.calls"] = calls(br)
        out[f"{br}.s_per_point"] = s(br) / calls(br) if calls(br) else 0.0
        out["bounds.clamped_points"] = self.clamped_points
        out["params.sample_input_sequence.s"] = s("params.sample_input_sequence")
        out["params.sample_input_sequence.calls"] = calls("params.sample_input_sequence")
        out["cli.write_csv.s"] = s("cli.write_csv")
        out["cli.write_csv.bytes"] = self.csv_bytes
        return out

    def fft_table(self) -> list[dict]:
        """Every distinct (stage, FFT length) with its call count and computed
        largest prime factor."""
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for key in self.fft_lengths:
            counts[key] += 1
        return [{"stage": stage, "n": n, "calls": c, "largest_prime": largest_prime_factor(n)}
                for (stage, n), c in sorted(counts.items())]
