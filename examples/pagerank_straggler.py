"""PageRank with a straggling worker: the Appendix-B case study.

One of eight workers is four times slower.  The script runs delta-based
PageRank under BSP/AP/SSP/AAP, prints the timing diagram of each run and
the straggler's round counts — the paper's Fig. 7 story: under AAP the
straggler is held to accumulate updates and converges in fewer rounds,
while the fast workers group into an implicit BSP cohort.

Run:  python examples/pagerank_straggler.py
"""

from repro import api
from repro.algorithms import PageRankProgram, PageRankQuery
from repro.bench import workloads
from repro.graph import analysis
from repro.obs import Observer, ascii_gantt


def main() -> None:
    graph = workloads.friendster(scale=0.6, seed=3)
    pg = workloads.partition(graph, 8, seed=3)
    query = PageRankQuery(epsilon=5e-4 * graph.num_nodes,
                          num_nodes=graph.num_nodes)
    reference = analysis.pagerank(graph, epsilon=1e-12)
    print(f"web graph: {graph}; worker 0 is the 4x straggler\n")

    for mode in ("BSP", "AP", "SSP", "AAP"):
        result = api.run(
            PageRankProgram(), pg, query, mode=mode,
            cost_model=workloads.default_cost(straggler=0, factor=4.0,
                                              seed=3),
            staleness_bound=5 if mode == "SSP" else None,
            observer=Observer())
        err = max(abs(result.answer[v] - reference[v]) for v in reference)
        print(f"--- {mode}: t={result.time:9.1f}  "
              f"straggler rounds={result.rounds[0]:3d}  "
              f"idle={result.metrics.total_idle:9.1f}  max err={err:.2e}")
        print(ascii_gantt(result.extras["obs"].log, width=76))
        print()


if __name__ == "__main__":
    main()
