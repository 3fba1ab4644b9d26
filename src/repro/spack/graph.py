"""Dependency-graph analysis over concrete specs.

Spack models builds as DAGs.  This module walks a concrete spec's DAG in
post-order (dependencies first, as the installer does) and answers the
scheduling questions the benches need:

* the **critical path** of simulated build times — the lower bound on
  makespan with unlimited build parallelism,
* makespan under ``k`` parallel build jobs (list scheduling), which powers
  the build-parallelism ablation.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .installer import _BUILD_COST, _DEFAULT_COST
from .spec import Spec, SpecError

__all__ = [
    "critical_path",
    "parallel_makespan",
    "graph_stats",
]


def _node_cost(spec: Spec) -> float:
    if spec.external:
        return 0.0
    return _BUILD_COST.get(spec.name, _DEFAULT_COST)


def _post_order(spec: Spec) -> List[Spec]:
    """The DAG's nodes, each after all of its dependencies."""
    if not spec.concrete:
        raise SpecError(f"graph analysis requires a concrete spec, got {spec}")
    nodes = list(spec.traverse(order="post"))
    seen = set()
    for node in nodes:
        # post-order puts a dependency later only when it closes a cycle
        if any(dep.name not in seen for dep in node.dependencies.values()):
            raise SpecError(f"dependency graph of {spec.name} has a cycle")
        seen.add(node.name)
    return nodes


def critical_path(spec: Spec) -> Tuple[List[str], float]:
    """The longest cost-weighted chain: (package names, total seconds)."""
    dist: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    for node in _post_order(spec):
        best_dep, best = None, 0.0
        for dep in node.dependencies.values():
            if dist[dep.name] >= best:
                best, best_dep = dist[dep.name], dep.name
        dist[node.name] = best + _node_cost(node)
        parent[node.name] = best_dep
    end = max(dist, key=lambda n: dist[n])
    path = []
    name: Optional[str] = end
    while name is not None:
        path.append(name)
        name = parent[name]
    return list(reversed(path)), dist[end]


def parallel_makespan(spec: Spec, workers: int) -> float:
    """Makespan of building the DAG with ``workers`` parallel build jobs
    (greedy list scheduling, ready tasks longest-first)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    nodes = _post_order(spec)
    cost = {node.name: _node_cost(node) for node in nodes}
    waiting = {node.name: len(node.dependencies) for node in nodes}
    dependents: Dict[str, List[str]] = {node.name: [] for node in nodes}
    for node in nodes:
        for dep in node.dependencies.values():
            dependents[dep.name].append(node.name)
    ready = [(-cost[n], n) for n, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    #: (finish_time, node) of running builds
    running: List[Tuple[float, str]] = []
    now = 0.0
    for _ in nodes:
        while ready and len(running) < workers:
            neg_cost, name = heapq.heappop(ready)
            heapq.heappush(running, (now - neg_cost, name))
        now, finished = heapq.heappop(running)
        for succ in dependents[finished]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                heapq.heappush(ready, (-cost[succ], succ))
    return now


def graph_stats(spec: Spec) -> Dict[str, float]:
    """Summary statistics of a build DAG."""
    nodes = _post_order(spec)
    _, cp = critical_path(spec)
    total = sum(_node_cost(node) for node in nodes)
    return {
        "nodes": len(nodes),
        "edges": sum(len(node.dependencies) for node in nodes),
        "total_build_seconds": total,
        "critical_path_seconds": cp,
        "max_parallel_speedup": total / cp if cp > 0 else 1.0,
    }
