"""Engine cache semantics and concurrency.

The compile memo must hit on identical source and miss on any edit; the
disk cache must serve across engine instances, and a CACHE_VERSION bump
must orphan every persisted response; concurrent ``engine.map`` fan-out
must produce exactly the single-threaded results.
"""

import gc
import json
import weakref

import pytest

import repro.api.cache as api_cache
from repro.api import (
    AnalyzeRequest,
    Engine,
    EngineConfig,
    ExecuteRequest,
    default_engine,
)
from repro.core import analyze_loop
from repro.evaluation import cli
from repro.fuzz import generate_case, run_fuzz

SOURCE = """
program engine_test
param N
array A(100), B(100)

main
  do i = 1, N @ copy
    A[i] = B[i] + 1
  end
end
"""

EDITED = SOURCE.replace("B[i] + 1", "B[i] + 2")


def test_recompile_same_source_hits_memo():
    engine = Engine(EngineConfig(use_disk_cache=False))
    compiled = engine.compile(SOURCE)
    assert engine.compile(SOURCE) is compiled
    # plans memoize on the shared handle too
    assert compiled.plan("copy") is engine.compile(SOURCE).plan("copy")


def test_source_edit_invalidates_compile_memo():
    engine = Engine(EngineConfig(use_disk_cache=False))
    a = engine.compile(SOURCE)
    b = engine.compile(EDITED)
    assert a is not b
    assert a.digest != b.digest


def test_program_object_compile_is_identity_keyed():
    engine = Engine(EngineConfig(use_disk_cache=False))
    program = engine.parse(SOURCE)
    by_obj = engine.compile(program)
    assert by_obj.program is program
    assert engine.compile(program) is by_obj
    assert by_obj.source is None  # and therefore never disk-cached
    # a process-specific id must never leak into wire documents
    assert by_obj.digest == ""
    assert by_obj.analyze("copy").digest == ""


def test_compile_memo_evicts_oldest_at_capacity():
    engine = Engine(EngineConfig(use_disk_cache=False, compile_cache_size=4))
    handles = [
        engine.compile(SOURCE.replace("+ 1", f"+ {n}")) for n in range(1, 8)
    ]
    assert len(engine._compile_memo.data) <= 4
    # the newest source still hits; the oldest was evicted (fresh handle)
    newest = SOURCE.replace("+ 1", "+ 7")
    assert engine.compile(newest) is handles[-1]
    assert engine.compile(SOURCE.replace("+ 1", "+ 1")) is not handles[0]


def test_evicted_programs_are_released():
    """``compile_cache_size`` bounds what an engine keeps alive, not
    only what it can find again: nothing below the compile memo may pin
    a program the memo has evicted."""
    engine = Engine(EngineConfig(use_disk_cache=False, compile_cache_size=4))
    programs = []
    for n in range(1, 13):
        source = SOURCE.replace("+ 1", f"+ {n}")
        engine.analyze(AnalyzeRequest(source=source, loop="copy"))
        programs.append(weakref.ref(engine.compile(source).program))
    gc.collect()
    assert sum(ref() is not None for ref in programs) <= 4


def test_evicted_programs_take_their_generated_code_with_them():
    """Executing a program generates code for it, kept on the program
    itself: an evicted program must not survive through that code, nor
    the code through anything process-wide."""
    engine = Engine(EngineConfig(use_disk_cache=False, compile_cache_size=4))
    programs, codes = [], []
    for n in range(1, 13):
        compiled = engine.compile(SOURCE.replace("+ 1", f"+ {n}"))
        report = compiled.execute("copy", {"N": 8}, {"B": [n] * 100}, jobs=2)
        assert report.parallel and report.correct
        generated = [run for _, run in compiled.program._lowered.values()]
        assert generated
        programs.append(weakref.ref(compiled.program))
        codes.append([weakref.ref(run.__code__) for run in generated])
    del compiled, generated
    gc.collect()
    alive = [ref() is not None for ref in programs]
    assert sum(alive) <= 4
    for program_alive, refs in zip(alive, codes):
        if not program_alive:
            assert all(ref() is None for ref in refs)


def test_disk_cache_serves_across_engines(tmp_path):
    config = EngineConfig(cache_dir=str(tmp_path))
    first = Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    assert not first.cached
    second = Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    assert second.cached
    assert second.canonical_text() == first.canonical_text()


def test_source_edit_invalidates_disk_cache(tmp_path):
    config = EngineConfig(cache_dir=str(tmp_path))
    Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    edited = Engine(config).analyze(AnalyzeRequest(source=EDITED, loop="copy"))
    assert not edited.cached


def test_cache_version_bump_invalidates_disk_cache(tmp_path, monkeypatch):
    config = EngineConfig(cache_dir=str(tmp_path))
    Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    monkeypatch.setattr(api_cache, "CACHE_VERSION", api_cache.CACHE_VERSION + 1)
    bumped = Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    assert not bumped.cached


def test_analyzer_options_partition_the_disk_cache(tmp_path):
    config = EngineConfig(cache_dir=str(tmp_path))
    Engine(config).analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    other_knobs = Engine(config).analyze(
        AnalyzeRequest(
            source=SOURCE, loop="copy", options={"use_monotonicity": False}
        )
    )
    assert not other_knobs.cached


def test_unknown_analyzer_option_is_rejected():
    engine = Engine(EngineConfig(use_disk_cache=False))
    with pytest.raises(TypeError, match="unknown analyzer option"):
        engine.compile(SOURCE).plan("copy", not_a_knob=1)


def test_map_is_deterministic_under_concurrency():
    """A fixed-seed mini-fuzz batch through two threads must yield the
    byte-identical responses of a serial run, in order."""
    engine = Engine(EngineConfig(use_disk_cache=False))
    requests = []
    for seed in range(6):
        case = generate_case(seed)
        requests.append(AnalyzeRequest(source=case.source, loop=case.label))
        requests.append(
            ExecuteRequest(
                source=case.source,
                loop=case.label,
                params=case.params,
                arrays=case.arrays,
                exact_strategy=case.exact_strategy,
            )
        )
    serial = [engine.serve(r) for r in requests]
    threaded = engine.map(requests, jobs=2)
    assert [r.canonical_text() for r in threaded] == [
        r.canonical_text() for r in serial
    ]


def test_fuzz_verdicts_race_free_across_thread_counts():
    one = run_fuzz(seeds=6, jobs=1, cache=None)
    two = run_fuzz(seeds=6, jobs=2, cache=None)
    key = lambda r: (r.seed, r.outcome, r.classification, r.parallel)
    assert [key(r) for r in one.results] == [key(r) for r in two.results]
    assert one.ok and two.ok


def test_analyze_loop_shim_delegates_to_default_engine():
    program = default_engine().parse(SOURCE)
    plan = analyze_loop(program, "copy")
    # the shim shares the default engine's plan memo
    assert analyze_loop(program, "copy") is plan
    assert plan is default_engine().compile(program).plan("copy")


def test_cli_analyze_emits_stable_json(tmp_path, capsys):
    path = tmp_path / "prog.loop"
    path.write_text(SOURCE)
    rc = cli.main(
        ["analyze", str(path), "--loop", "copy", "--json", "--no-cache"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "analyze"
    assert payload["loop"] == "copy"
    assert payload["classification"] == "STATIC-PAR"


def test_cli_analyze_human_output(tmp_path, capsys):
    path = tmp_path / "prog.loop"
    path.write_text(SOURCE)
    rc = cli.main(["analyze", str(path), "--loop", "copy", "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "classification: STATIC-PAR" in out


def test_cli_analyze_unknown_loop_errors(tmp_path, capsys):
    path = tmp_path / "prog.loop"
    path.write_text(SOURCE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", str(path), "--loop", "nope", "--no-cache"])
    assert exc.value.code == 2


# -- the analysis-cache key schema, and the knob that left it ------------------


def test_cache_key_schema_is_pinned(tmp_path):
    """Pin what the key digests: cache + protocol versions, digest,
    loop label and the sorted knob text (exactly the six knobs)."""
    from repro.api.engine import ANALYZER_KNOBS, AnalysisCache, _knob_text
    from repro.api.protocol import PROTOCOL_VERSION

    assert api_cache.CACHE_VERSION == 5
    knobs = EngineConfig().analyzer_knobs()
    assert tuple(knobs) == ANALYZER_KNOBS == (
        "use_monotonicity", "use_reshaping", "use_civagg",
        "interprocedural", "size_cap", "work_cap",
    )
    knob_text = _knob_text(knobs)
    assert knob_text == (
        "interprocedural=True|size_cap=None|use_civagg=True|"
        "use_monotonicity=True|use_reshaping=True|work_cap=None"
    )
    cache = AnalysisCache(str(tmp_path))
    key = cache.key("d1g3st", "copy", knob_text)
    assert key == "api-analyze-d1g3st-" + cache.digest(
        f"v{api_cache.CACHE_VERSION}\0p{PROTOCOL_VERSION}\0"
        f"d1g3st\0copy\0{knob_text}"
    )
    # a body persisted by a v4 engine may say tier0/resolved, which no
    # engine answers any more: neither of the keys a v4 engine wrote
    # for this digest/loop can be this key
    for tiering in (True, False):
        v4_text = _knob_text(dict(knobs, tiering=tiering))
        assert key != "api-analyze-d1g3st-" + cache.digest(
            f"v4\0p{PROTOCOL_VERSION}\0d1g3st\0copy\0{v4_text}"
        )
    # flipping any one knob must still move the key
    flipped = dict(knobs, use_reshaping=False)
    assert cache.key("d1g3st", "copy", _knob_text(flipped)) != key


def test_tiering_is_gone_on_every_door():
    """One pipeline: the Tier-0 knob is not a config field, a request
    option or an analyzer argument, and nothing under ``src/`` names
    it."""
    import re
    from pathlib import Path

    from repro.api.engine import ANALYZER_KNOBS
    from repro.core.analyzer import HybridAnalyzer

    with pytest.raises(TypeError, match="tiering"):
        EngineConfig(tiering=False)
    engine = Engine(EngineConfig(use_disk_cache=False))
    with pytest.raises(TypeError, match="tiering"):
        HybridAnalyzer(engine.parse(SOURCE), tiering=False)
    with pytest.raises(TypeError) as rejected:
        engine.analyze(
            AnalyzeRequest(source=SOURCE, loop="copy", options={"tiering": False})
        )
    assert str(rejected.value) == (
        "unknown analyzer option(s) ['tiering']; "
        f"valid: {list(ANALYZER_KNOBS)}"
    )
    assert len(ANALYZER_KNOBS) == 6
    with pytest.raises(ModuleNotFoundError):
        import repro.core.screening  # noqa: F401
    # the default answer is what tiering=off used to answer
    response = engine.analyze(AnalyzeRequest(source=SOURCE, loop="copy"))
    assert (response.tier_used, response.screening,
            response.escalation_reason) == ("tier1", "off", "")
    # grep -rniE "tiering|screen_static|_TierTrace" src/  is empty
    gone = re.compile("tiering|screen_static|_TierTrace", re.IGNORECASE)
    src = Path(__file__).parent.parent.parent / "src"
    assert [
        str(path) for path in sorted(src.rglob("*.py"))
        if gone.search(path.read_text())
    ] == []
