"""quit-check rule tests: each rule must fire on its seeded-violation
fixture at the right location, and the shipped ``src/`` tree must lint
clean (the acceptance gate CI enforces)."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main as cli_main
from repro.lint.engine import Project, all_rules, run_rules

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"


def run(rule, *names):
    project = Project.from_paths([FIXTURES / n for n in names])
    return run_rules(project, [rule])


def lines(findings):
    return [f.line for f in findings]


# ---------------------------------------------------------------------------
# no-bare-assert
# ---------------------------------------------------------------------------


def test_bare_assert_fires_with_location():
    findings = run("no-bare-assert", "asserts.py")
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "no-bare-assert"
    assert f.path.endswith("asserts.py")
    assert f.line == 6  # the `assert x >= 0` line
    assert "python -O" in f.message


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def test_lock_cycle_detected():
    findings = run("lock-discipline", "lock_cycle.py")
    cycles = [f for f in findings if "lock cycle" in f.message]
    assert cycles, findings
    # Both directions of the inverted pair are reported, at the inner
    # `with` of each nesting.
    assert sorted(lines(cycles)) == [15, 20]
    for f in cycles:
        assert "lock_cycle._alpha_lock" in f.message
        assert "lock_cycle._beta_lock" in f.message


def test_same_lock_nesting_detected():
    findings = run("lock-discipline", "lock_cycle.py")
    reentrant = [f for f in findings if "not reentrant" in f.message]
    assert len(reentrant) == 1
    assert reentrant[0].line == 25


def test_rank_inversion_via_pragma():
    findings = run("lock-discipline", "durable.py")
    assert len(findings) == 1
    (f,) = findings
    assert "lock order inversion" in f.message
    assert "'durable.gate'" in f.message
    assert "'wal.append'" in f.message
    assert f.line == 12  # the `with self._gate.read_locked():` line


def test_unguarded_write_detected():
    findings = run("lock-discipline", "wal.py")
    assert len(findings) == 1
    (f,) = findings
    assert "WriteAheadLog.syncs" in f.message
    assert "outside any lock scope" in f.message
    assert f.line == 11


# ---------------------------------------------------------------------------
# fault-parity
# ---------------------------------------------------------------------------


def test_fault_parity_finds_each_drift_once():
    findings = run("fault-parity", "faults.py", "caller.py")
    by_line = {}
    for f in findings:
        by_line.setdefault((Path(f.path).name, f.line), []).append(f.message)
    expected = {
        ("caller.py", 12): "wal.unregistered",  # unregistered fire site
        ("caller.py", 13): "io.unregistered",  # unregistered shim site
        ("faults.py", 7): "wal.never_fired",  # control site never fired
        ("faults.py", 11): "io.never_shimmed",  # io site never shimmed
        ("caller.py", 14): "not a string literal",  # non-literal name
        ("caller.py", 15): "io.ok.read",  # fire on an io-only site
        ("caller.py", 16): "wal.ok",  # shim on a control site
        ("caller.py", 18): "repl.link.ok",  # fire on a link site
    }
    assert sorted(by_line) == sorted(expected)
    for where, needle in expected.items():
        (message,) = by_line[where]
        assert needle in message, (where, message)
    assert "not registered" in by_line[("caller.py", 12)][0]
    assert "not registered" in by_line[("caller.py", 13)][0]
    assert "faults.fire()" in by_line[("faults.py", 7)][0]
    assert "I/O shim" in by_line[("faults.py", 11)][0]
    assert "its kinds need a faults I/O shim" in by_line[("caller.py", 15)][0]
    assert "its kinds need faults.fire()" in by_line[("caller.py", 16)][0]
    assert "its kinds need faults.link()" in by_line[("caller.py", 18)][0]


def test_fault_parity_skips_without_registry():
    # No registry in scope -> nothing to compare against.
    assert run("fault-parity", "caller.py") == []


# ---------------------------------------------------------------------------
# stats-parity
# ---------------------------------------------------------------------------


def test_stats_typo_detected_direct_and_alias():
    findings = run("stats-parity", "stats_typo.py")
    assert len(findings) == 2
    by_line = {f.line: f for f in findings}
    assert 18 in by_line and "appendz" in by_line[18].message
    assert 22 in by_line and "appned" in by_line[22].message


# ---------------------------------------------------------------------------
# api-parity
# ---------------------------------------------------------------------------


def test_api_gap_detected():
    findings = run("api-parity", "api_gap.py")
    assert len(findings) == 1
    (f,) = findings
    assert "PartialTree" in f.message
    assert f.line == 5  # class definition line
    for missing in ("insert_many", "range_iter", "scrub", "check"):
        assert missing in f.message
    assert "get_many" not in f.message  # present, must not be reported


# ---------------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------------


def test_async_blocking_two_frames_deep():
    findings = run("async-blocking", "async_block.py")
    fsync = [f for f in findings if "os.fsync" in f.message]
    assert len(fsync) == 1
    (f,) = fsync
    assert f.line == 13  # the os.fsync call site, not the async def
    assert "async def async_block.handler" in f.message
    # The witness path names every frame between entry and the call.
    assert "async_block.handler -> async_block._middle" in f.message
    assert "_sync_flush" in f.message


def test_async_blocking_sync_lock_in_async_body():
    findings = run("async-blocking", "async_block.py")
    locks = [f for f in findings if "sync lock" in f.message]
    assert len(locks) == 1
    assert locks[0].line == 38
    assert "async_block._table_lock" in locks[0].message


def test_async_blocking_executor_and_pragma_suppress():
    findings = run("async-blocking", "async_block.py")
    # Exactly the two seeded sites fire: the executor-bridged flush,
    # the pragma'd sleep, and the pragma'd function stay silent.
    assert sorted(lines(findings)) == [13, 38]


def test_async_blocking_awaited_flavors_exempt():
    # `await lock.acquire()` and combinator-wrapped acquires are the
    # asyncio flavors — the shipped admission controller uses both.
    src = Path(__file__).parent.parent / "src" / "repro" / "net"
    project = Project.from_paths([src / "admission.py"])
    assert run_rules(project, ["async-blocking"]) == []


# ---------------------------------------------------------------------------
# deadline-discipline
# ---------------------------------------------------------------------------


def test_deadline_missing_budget_fires():
    findings = run("deadline-discipline", "deadline_gap.py")
    assert sorted(lines(findings)) == [10, 13]
    by_line = {f.line: f for f in findings}
    assert "`wait`" in by_line[10].message
    assert "`drain_acks`" in by_line[13].message
    for f in findings:
        assert "deadline/budget" in f.message


def test_deadline_bounded_bridge_is_clean():
    findings = run("deadline-discipline", "deadline_gap.py")
    # good_wait passes the deadline through and must not be reported.
    assert 17 not in lines(findings)


# ---------------------------------------------------------------------------
# exception-flow
# ---------------------------------------------------------------------------


def test_exception_flow_raw_oserror_leak():
    findings = run("exception-flow", "exc_leak.py")
    leaks = [f for f in findings if "raw OSError" in f.message]
    assert len(leaks) == 1
    (f,) = leaks
    assert f.line == 19  # the seeded raise site, two frames down
    assert "handler_leak" in f.message
    assert "ST_*" in f.message


def test_exception_flow_machinery_swallow():
    findings = run("exception-flow", "exc_leak.py")
    swallows = [f for f in findings if "catch-all" in f.message]
    assert len(swallows) == 1
    assert swallows[0].line == 34
    assert "bare `raise`" in swallows[0].message


def test_exception_flow_refusal_wrapped_retryable():
    findings = run("exception-flow", "exc_leak.py")
    wraps = [f for f in findings if "typed refusal" in f.message]
    assert len(wraps) == 1
    assert wraps[0].line == 42
    assert "ReadOnlyError" in wraps[0].message
    assert "TransientNetworkError" in wraps[0].message


def test_exception_flow_catch_and_map_is_clean():
    findings = run("exception-flow", "exc_leak.py")
    # handler_clean catches the same deep OSError and maps it; only the
    # three seeded sites may fire.
    assert sorted(lines(findings)) == [19, 34, 42]


def test_new_rules_cli_exit_codes(capsys):
    for fixture in ("async_block.py", "deadline_gap.py", "exc_leak.py"):
        assert cli_main([str(FIXTURES / fixture)]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the shipped tree is clean
# ---------------------------------------------------------------------------


def test_src_tree_lints_clean():
    project = Project.from_paths([SRC])
    findings = run_rules(project)
    assert findings == [], "\n".join(f.format() for f in findings)
    # Sanity: the scan actually covered the package.
    assert len(project.files) > 50


def test_parse_errors_surface(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    project = Project.from_paths([bad])
    findings = run_rules(project)
    assert len(findings) == 1
    assert findings[0].rule == "parse"


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(Project.from_paths([]), ["no-such-rule"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.name in out


def test_cli_exit_codes(capsys):
    assert cli_main([str(FIXTURES / "asserts.py")]) == 1
    assert cli_main([str(SRC)]) == 0
    assert cli_main([str(FIXTURES / "no-such-dir")]) == 2
    assert cli_main(["--rule", "bogus", str(SRC)]) == 2
    capsys.readouterr()


def test_cli_json_output(capsys):
    code = cli_main(["--format", "json", str(FIXTURES / "asserts.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "no-bare-assert"
    assert payload[0]["line"] == 6


def test_cli_rule_filter(capsys):
    code = cli_main(
        ["--rule", "stats-parity", str(FIXTURES / "asserts.py")]
    )
    capsys.readouterr()
    assert code == 0  # bare assert invisible to the stats rule


def test_cli_summary_format_matches_baseline_shape(capsys):
    code = cli_main(["--format", "summary", str(SRC)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] > 50
    # Every registered rule appears with an explicit (zero) count — the
    # committed CI baseline diffs against exactly this shape.
    assert sorted(payload["findings"]) == sorted(
        r.name for r in all_rules()
    )
    assert all(count == 0 for count in payload["findings"].values())
    baseline = (
        Path(__file__).parent.parent / ".github" / "quit-check-baseline.json"
    )
    assert json.loads(baseline.read_text()) == payload
