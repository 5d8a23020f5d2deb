"""What every finished run must show, shared by the golden table and the
knob-space property.

:func:`assert_retires_legally` holds for every run.  Each entry of
:data:`LAWS` is a conservation law of one optional block, paired with the
configs that wire that block.
"""


def retired(result):
    return sorted(r.tid for r in result.records if r.is_complete())


def assert_legal(result, graph):
    problems = result.verify_against(graph)
    assert problems == [], "\n".join(problems[:5])


def assert_retires_legally(result, trace, graph):
    """Exactly the trace retired, in a schedule legal for the golden
    dependence graph, within the critical-path bound, with every
    Dependence Table slice drained."""
    n = len(trace)
    assert retired(result) == list(range(n))
    assert_legal(result, graph)
    assert result.makespan >= graph.critical_path()
    assert max(r.exec_end - r.exec_start for r in result.records) <= result.makespan
    assert result.stats["dep_table"]["occupied"] == 0
    assert result.stats["tasks_submitted"] == n


def _merge_unit_merges_every_task(result, trace, config):
    assert result.stats["frontend"]["merged"] == len(trace)


def _retire_tickets_bound_inflight_finishes(result, trace, config):
    retire = result.stats["shards"]["retire"]
    depth = config.retire_pipeline_depth
    assert all(m <= depth for m in retire["inflight_max"])


def _every_parameter_is_probed(result, trace, config):
    assert result.stats["check"]["probes"] == sum(t.n_params for t in trace)


def _resequencers_forward_every_probe(result, trace, config):
    check = result.stats["check"]
    assert sum(check["reseq_forwarded"]) == check["probes"]


def _fast_dispatches_are_announced(result, trace, config):
    sub = result.stats["dispatch"]["fast_dispatch"]
    assert sub["ownership_notices"] == sub["fast_dispatches_remote"]


def _td_cache_fills_are_accounted(result, trace, config):
    cache = result.stats["dispatch"]["fast_dispatch"]["td_cache"]
    assert cache["fills"] == (
        cache["hits"] + cache["evictions"] + cache["invalidations"]
    )
    assert cache["hits"] + cache["misses"] == len(trace)


#: name -> (does the config wire the block, law(result, trace, config)).
LAWS = {
    "merge-unit": (
        lambda c: c.use_parallel_frontend,
        _merge_unit_merges_every_task,
    ),
    "retire-tickets": (
        lambda c: c.use_sharded_maestro,
        _retire_tickets_bound_inflight_finishes,
    ),
    "check-probes": (
        lambda c: c.use_sharded_maestro,
        _every_parameter_is_probed,
    ),
    "resequencers": (
        lambda c: c.use_sharded_maestro and c.decentralized_check_scatter,
        _resequencers_forward_every_probe,
    ),
    "ownership-notices": (
        lambda c: c.use_fast_dispatch,
        _fast_dispatches_are_announced,
    ),
    "td-cache": (
        lambda c: c.use_fast_dispatch and c.td_cache_entries > 0,
        _td_cache_fills_are_accounted,
    ),
}


def assert_conservation_laws(result, trace, config):
    for applies, law in LAWS.values():
        if applies(config):
            law(result, trace, config)
