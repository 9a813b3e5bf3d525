"""Walkthrough of the paper's Fig. 1 / Examples 1 and 4.

Three workers compute connected components over the chained-component graph
of Fig. 1(b).  P1 and P2 take 3 time units per round, P3 takes 6 (the
straggler), messages take 1 unit.  The script renders the timing diagram of
each parallel model, reproducing the qualitative picture of Fig. 1(a):
BSP is gated by P3; AP churns; SSP stalls on the staleness bound; AAP lets
fast workers proceed while the straggler accumulates updates.

Run:  python examples/fig1_walkthrough.py
"""

from repro import api
from repro.algorithms import CCProgram, CCQuery
from repro.bench.workloads import fig1_cost_model, fig1_partition
from repro.obs import Observer, ascii_gantt


def main() -> None:
    pg = fig1_partition()
    print("Fig 1(b) graph: 8 three-node components chained 0-1-...-7;")
    print("F1 holds components {1,3,5}, F2 {2,4,6}, F3 {0,7}\n")

    for mode in ("BSP", "AP", "SSP", "AAP"):
        result = api.run(CCProgram(), pg, CCQuery(), mode=mode,
                         cost_model=fig1_cost_model(),
                         staleness_bound=1 if mode == "SSP" else None,
                         observer=Observer())
        assert set(result.answer.values()) == {0}
        print(f"--- {mode}: finished at t={result.time:.1f}, "
              f"rounds={result.rounds} "
              f"(P3 did {result.rounds[2]} rounds)")
        print(ascii_gantt(result.extras["obs"].log, width=76))
        print()


if __name__ == "__main__":
    main()
