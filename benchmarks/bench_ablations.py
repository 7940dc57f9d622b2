"""Ablations of the design choices DESIGN.md calls out.

* Segment length bound k (1 vs 3 vs 5): more context per meta-pattern at
  higher mining cost.
* Non-optimizable hardware reduction on vs off: without the reduction,
  direct-hardware waits pollute the AWG (and therefore the patterns)
  with cost developers cannot act on.
* Set generalization vs exact sequences: the Signature Set Tuple merges
  ordering variants of the same propagation structure; counting distinct
  exact node-sequences shows how much fragmentation sets avoid.
"""

import time

from benchmarks.conftest import print_banner
from repro.causality.analyzer import CausalityAnalysis, assemble_report
from repro.causality.classes import classify_instances
from repro.causality.mining import enumerate_meta_patterns
from repro.causality.sst import SignatureSetTuple
from repro.evaluation.study import group_by_scenario
from repro.report.tables import Table
from repro.sim.workloads.registry import scenario_spec
from repro.trace.signatures import ALL_DRIVERS
from repro.waitgraph.aggregate import aggregate_wait_graphs
from repro.waitgraph.builder import build_wait_graph


def _largest_scenario(bench_corpus):
    grouped = group_by_scenario(bench_corpus)
    name, instances = max(grouped.items(), key=lambda kv: len(kv[1]))
    return name, instances


def test_bench_ablation_segment_bound(benchmark, bench_corpus):
    name, instances = _largest_scenario(bench_corpus)
    spec = scenario_spec(name)
    # k only changes mining, so graphs and AWGs are built once for the sweep.
    classes = classify_instances(
        instances, spec.t_fast, spec.t_slow, scenario=name
    )
    fast_awg, slow_awg = (
        aggregate_wait_graphs(
            [build_wait_graph(instance) for instance in members], ALL_DRIVERS
        )
        for members in (classes.fast, classes.slow)
    )

    def analyze(k):
        return assemble_report(
            scenario=name,
            t_fast=spec.t_fast,
            t_slow=spec.t_slow,
            classes=classes,
            fast_awg=fast_awg,
            slow_awg=slow_awg,
            segment_bound=k,
        )

    benchmark.pedantic(lambda: analyze(5), rounds=1, iterations=1)

    print_banner(f"Ablation - segment bound k (scenario {name})")
    table = Table(["k", "meta-patterns", "contrasts", "patterns", "mining (ms)"])
    metas_by_k = {}
    for k in (1, 3, 5):
        start = time.perf_counter()
        report = analyze(k)
        elapsed = time.perf_counter() - start
        metas_by_k[k] = len(report.slow_meta_patterns)
        table.add_row(
            k,
            len(report.slow_meta_patterns),
            len(report.contrast_metas),
            report.pattern_count,
            f"{elapsed * 1000:.1f}",
        )
    print(table.render())
    # Longer segments can only add meta-patterns.
    assert metas_by_k[1] <= metas_by_k[3] <= metas_by_k[5]


def test_bench_ablation_hw_reduction(benchmark, bench_corpus):
    name, instances = _largest_scenario(bench_corpus)
    spec = scenario_spec(name)
    slow = [i for i in instances if i.duration > spec.t_slow]
    graphs = [build_wait_graph(instance) for instance in slow]

    def aggregate(reduce_hw):
        return aggregate_wait_graphs(graphs, ALL_DRIVERS, reduce_hw=reduce_hw)

    benchmark(lambda: aggregate(True))

    reduced = aggregate(True)
    unreduced = aggregate(False)
    print_banner(f"Ablation - non-optimizable hw reduction (scenario {name})")
    table = Table(["Variant", "AWG nodes", "root cost", "hw cost removed"])
    table.add_row("with reduction", reduced.node_count(),
                  reduced.total_cost(), reduced.reduced_hw_cost)
    table.add_row("without reduction", unreduced.node_count(),
                  unreduced.total_cost(), 0)
    print(table.render())

    assert reduced.node_count() <= unreduced.node_count()
    assert reduced.total_cost() + reduced.reduced_hw_cost == unreduced.total_cost()


def test_bench_ablation_contrast_criteria(benchmark, bench_corpus):
    """Slow-only criterion alone vs adding the cost-ratio criterion.

    Criterion 2 (common pattern, cost ratio > T_slow/T_fast) catches the
    expensive-but-necessary behaviours that appear in both classes; the
    ablation measures how many contrasts it contributes.
    """
    from repro.causality.mining import discover_contrast_meta_patterns

    name, instances = _largest_scenario(bench_corpus)
    spec = scenario_spec(name)
    report = CausalityAnalysis(["*.sys"]).analyze(
        instances, spec.t_fast, spec.t_slow, scenario=name
    )

    def discover_full():
        return discover_contrast_meta_patterns(
            report.slow_meta_patterns, report.fast_meta_patterns,
            spec.t_fast, spec.t_slow,
        )

    full = benchmark(discover_full)
    slow_only = {
        sst: criteria
        for sst, criteria in full.items()
        if criteria.slow_only
    }
    ratio_based = len(full) - len(slow_only)

    print_banner(f"Ablation - contrast criteria (scenario {name})")
    table = Table(["Criterion", "contrast meta-patterns"])
    table.add_row("slow-only (criterion 1)", len(slow_only))
    table.add_row("+ cost ratio (criterion 2)", ratio_based)
    table.add_row("total", len(full))
    print(table.render())

    assert len(slow_only) <= len(full)


def test_bench_ablation_sets_vs_sequences(benchmark, bench_corpus):
    name, instances = _largest_scenario(bench_corpus)
    spec = scenario_spec(name)
    slow = [i for i in instances if i.duration > spec.t_slow]
    awg = aggregate_wait_graphs(
        [build_wait_graph(instance) for instance in slow], ALL_DRIVERS
    )

    def count_set_patterns():
        return len(enumerate_meta_patterns(awg, k=5))

    set_count = benchmark(count_set_patterns)

    # Exact-sequence variant: key segments by the ordered node-key tuple.
    sequence_keys = set()
    for node in awg.nodes():
        chain = []
        current = node
        while current is not None and len(chain) < 5:
            chain.append(current.key)
            current = current.parent
        for length in range(1, len(chain) + 1):
            sequence_keys.add(tuple(reversed(chain[:length])))

    print_banner(f"Ablation - sets vs exact sequences (scenario {name})")
    table = Table(["Representation", "distinct patterns (k=5)"])
    table.add_row("Signature Set Tuples", set_count)
    table.add_row("exact node sequences", len(sequence_keys))
    print(table.render())

    # Set generalization can only merge, never split.
    assert set_count <= len(sequence_keys)
