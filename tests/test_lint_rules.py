"""Rule-pack tests against the fixture corpus: exact ids and lines.

Each fixture in ``tests/lint_fixtures/`` contains known violations; the
directory is excluded from lint discovery so the self-hosting pass stays
clean, and the fixtures are linted here by explicit path.
"""

from repro.lint import lint_paths
from repro.lint.framework import EXCLUDED_DIRS

FIXTURES = "tests/lint_fixtures"


def findings_of(name, **kwargs):
    result = lint_paths([f"{FIXTURES}/{name}"], **kwargs)
    return result, [(f.rule, f.line) for f in result.findings]


class TestDeterminismPack:
    def test_exact_rule_ids_and_lines(self):
        result, got = findings_of("det_violations.py")
        assert got == [
            ("DET001", 16),   # time.time()
            ("DET001", 17),   # datetime.now()
            ("DET002", 22),   # random.random()
            ("DET002", 23),   # np.random.default_rng() without a seed
            ("DET003", 34),   # for over a set literal binding
            ("DET003", 36),   # set comprehension source
        ]

    def test_function_local_numpy_import_resolves(self):
        _, got = findings_of("det_local_import.py")
        assert got == [("DET002", 12)]

    def test_suppression_is_honoured_and_recorded(self):
        result, _ = findings_of("det_violations.py")
        assert [(f.rule, f.line) for f in result.suppressed] == \
            [("DET003", 46)]
        assert result.suppressed[0].justification == "fixture: suppression"


class TestTelemetryPack:
    def test_typo_and_dead_kind(self):
        _, got = findings_of("tel_violations.py")
        assert got == [
            ("TEL002", 5),    # 'ghost_kind' declared, never emitted
            ("TEL001", 14),   # 'demand_misss' emitted, never declared
        ]

    def test_messages_name_the_kind(self):
        result, _ = findings_of("tel_violations.py")
        by_rule = {f.rule: f.message for f in result.findings}
        assert "'ghost_kind'" in by_rule["TEL002"]
        assert "'demand_misss'" in by_rule["TEL001"]


class TestMetricsPack:
    def test_undeclared_and_dead_metric(self):
        _, got = findings_of("met_violations.py")
        assert got == [
            ("TEL004", 6),    # 'met_idle_workers' declared, never set
            ("TEL003", 11),   # 'met_request_total' typo'd observation
            ("TEL003", 12),   # 'met_depth' never declared
        ]

    def test_messages_name_the_metric(self):
        result, _ = findings_of("met_violations.py")
        by_line = {f.line: f.message for f in result.findings}
        assert "'met_idle_workers'" in by_line[6]
        assert "'met_request_total'" in by_line[11]
        assert "'met_depth'" in by_line[12]

    def test_installed_catalogue_backs_observations(self):
        # The fixture observes 'met_requests_total' (declared locally);
        # repro's own catalogue names never fire TEL003 even when the
        # linted set holds no declaration for them — the installed
        # catalogue is always in scope.
        result, got = findings_of("met_violations.py", select=["TEL003"])
        assert [rule for rule, _ in got] == ["TEL003", "TEL003"]
        assert all("met_requests_total" not in f.message
                   for f in result.findings)


class TestRegistryPack:
    def test_shape_factory_and_override(self):
        _, got = findings_of("reg_violations.py")
        assert got == [
            ("REG003", 17),   # entry is a string, not a tuple
            ("REG003", 18),   # a lambda is not a literal
            ("REG001", 19),   # unexpected constructor keyword
            ("REG002", 21),   # override key not a FrontendConfig field
            ("REG001", 22),   # import path names no definition
        ]

    def test_messages_name_the_scheme(self):
        result, _ = findings_of("reg_violations.py")
        by_line = {f.line: f.message for f in result.findings}
        assert "'bad_shape'" in by_line[17]
        assert "'old_lambda'" in by_line[18] and "literal" in by_line[18]
        assert "'nope'" in by_line[19]
        assert "'not_a_field'" in by_line[21]
        assert "MissingPrefetcher" in by_line[22]


class TestBudgetPack:
    def test_structure_total_and_unresolved(self):
        result, got = findings_of("bud_violations.py")
        assert got == [
            ("BUD002", 21),   # total over the paper claim, at the class
            ("BUD001", 24),   # oversized DisTable, at its default
            ("BUD003", 28),   # unfoldable btb_buffer_entries default
        ]
        by_rule = {f.rule: f.message for f in result.findings}
        assert "65536 B" in by_rule["BUD001"]
        assert "68202 B" in by_rule["BUD002"]
        assert "7786 B" in by_rule["BUD002"]
        assert "'btb_buffer_entries'" in by_rule["BUD003"]

    def test_budget_pack_is_selectable(self):
        _, got = findings_of("bud_violations.py", select=["BUD"])
        assert [rule for rule, _ in got] == ["BUD002", "BUD001", "BUD003"]


class TestCleanFixture:
    def test_no_findings(self):
        result, got = findings_of("clean.py")
        assert got == []
        assert result.ok


class TestFixtureCorpusIsExcludedFromDiscovery:
    def test_directory_walk_skips_lint_fixtures(self):
        assert "lint_fixtures" in EXCLUDED_DIRS
        result = lint_paths(["tests"])
        assert not any("lint_fixtures" in f for f in result.files)


class TestEnvPack:
    def test_undeclared_dead_and_drifted(self):
        _, got = findings_of("env_violations.py")
        assert got == [
            ("ENV002", 14),   # REPRO_ENV_DEAD declared, never read
            ("ENV001", 25),   # REPRO_ENV_TYPO read, never declared
            ("ENV003", 35),   # fallback 'slow' vs declared 'fast'
        ]

    def test_messages_name_the_variable(self):
        result, _ = findings_of("env_violations.py")
        by_rule = {f.rule: f.message for f in result.findings}
        assert "'REPRO_ENV_DEAD'" in by_rule["ENV002"]
        assert "'REPRO_ENV_TYPO'" in by_rule["ENV001"]
        assert "'slow'" in by_rule["ENV003"]
        assert "'fast'" in by_rule["ENV003"]

    def test_drifted_default_carries_a_fix(self):
        result, _ = findings_of("env_violations.py")
        drift = [f for f in result.findings if f.rule == "ENV003"][0]
        assert drift.fix
        assert drift.fix[0][5] == "'fast'"

    def test_alias_and_required_reads_stay_clean(self):
        # read_aliased_ok resolves the name through a module constant
        # and matches the declared default; read_required_ok subscripts
        # a no-default entry.  Neither may fire.
        result, _ = findings_of("env_violations.py")
        lines = {f.line for f in result.findings}
        assert 29 not in lines and 41 not in lines


class TestExceptionPack:
    def test_raise_leak_and_swallowed_handlers(self):
        _, got = findings_of("exc_violations.py")
        assert got == [
            ("EXC001", 9),    # raise escapes with fh open
            ("EXC002", 38),   # except Exception: local binding only
            ("EXC002", 47),   # bare except: pass
        ]

    def test_leak_message_names_the_handle_and_evidence(self):
        result, _ = findings_of("exc_violations.py")
        leak = [f for f in result.findings if f.rule == "EXC001"][0]
        assert "'fh'" in leak.message and "line 6" in leak.message
        assert leak.related[0][1] == 6

    def test_with_finally_and_narrow_handlers_stay_clean(self):
        # raise_inside_with_ok, raise_after_finally_ok, narrow_swallow_ok
        # and broad_but_counted_ok must not fire.
        result, _ = findings_of("exc_violations.py")
        assert {f.line for f in result.findings} == {9, 38, 47}
