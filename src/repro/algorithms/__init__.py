"""PIE programs: the paper's four computations plus reachability, the
fuzzer's ``Max``-lattice program."""

from repro.algorithms.cc import CCProgram, CCQuery, components_from_answer
from repro.algorithms.cf import CFProgram, CFQuery
from repro.algorithms.pagerank import PageRankProgram, PageRankQuery
from repro.algorithms.reachability import ReachabilityProgram, ReachQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery

__all__ = ["SSSPProgram", "SSSPQuery", "CCProgram", "CCQuery",
           "components_from_answer", "PageRankProgram", "PageRankQuery",
           "CFProgram", "CFQuery", "ReachabilityProgram", "ReachQuery"]
