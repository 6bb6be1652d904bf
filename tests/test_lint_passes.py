"""Tests for the ``repro lint`` static analyzer (repro.analysis).

Each pass is exercised against a known-good and a known-bad fixture under
``tests/data/lint_fixtures``; the self-test at the bottom runs the real
gate over the installed package against the committed baseline, so any
drift between the code and ``analysis/baseline.json`` fails the suite
before it fails CI.
"""

import json
import re
from pathlib import Path

import pytest

import repro
from repro import analysis
from repro.analysis import baseline as baseline_mod
from repro.analysis.core import fingerprint, load_module
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent
BASELINE = REPO_ROOT / "analysis" / "baseline.json"


def lint_one(path: Path, pass_id: str | None = None):
    passes = [pass_id] if pass_id else None
    return analysis.lint_paths([path], passes=passes).findings


def codes_at(findings):
    return {(f.code, f.line) for f in findings}


# --------------------------------------------------------------------- #
# pass 1: untracked allocations
# --------------------------------------------------------------------- #
class TestUntrackedAlloc:
    def test_good_allocs_clean(self):
        assert lint_one(FIXTURES / "alloc_good.py") == []

    def test_bad_allocs_flagged(self):
        findings = lint_one(FIXTURES / "alloc_bad.py", "untracked-alloc")
        assert codes_at(findings) == {("UA001", 7), ("UA001", 12)}
        assert {f.subject for f in findings} == {
            "untracked:empty",
            "untracked_bytes:bytearray",
        }

    def test_out_of_scope_subpackage_skipped(self):
        # obs/ is outside the accounting-critical subpackages
        pkg = Path(repro.__file__).parent
        findings = analysis.lint_paths(
            [pkg / "obs"], passes=["untracked-alloc"]
        ).findings
        assert findings == []

    def test_injected_escape_located(self, tmp_path):
        """Acceptance: an injected escaping allocation is caught with the
        right code, file and line."""
        bad = tmp_path / "leaky.py"
        bad.write_text(
            "import numpy as np\n"
            "\n"
            "def build(n):\n"
            "    out = np.zeros(n, dtype=np.int64)\n"
            "    return out\n"
        )
        findings = lint_one(bad)
        assert [(f.code, f.file, f.line) for f in findings] == [
            ("UA001", "leaky.py", 4)
        ]

    @pytest.mark.parametrize(
        "rel",
        [
            "graph/builder.py",
            "core/refinement/fm_kernel.py",
            "dist/dpartitioner.py",
        ],
    )
    def test_undoing_the_tracked_migration_is_caught(self, tmp_path, rel):
        """Every ``tracked_*`` constructor of a real module, rewritten back
        to the raw numpy call, raises UA001 on its line."""
        source = (Path(repro.__file__).parent / rel).read_text()
        call = re.compile(r"\btracked_(empty|zeros|ones|full)\(")
        rewritten = {
            i
            for i, text in enumerate(source.splitlines(), start=1)
            if call.search(text)
        }
        assert rewritten, f"{rel} no longer uses a tracked constructor"
        mutant = tmp_path / Path(rel).name
        mutant.write_text(call.sub(r"np.\1(", source))
        flagged = {f.line for f in lint_one(mutant, "untracked-alloc")}
        assert rewritten <= flagged, sorted(rewritten - flagged)


# --------------------------------------------------------------------- #
# pass 2: integer width
# --------------------------------------------------------------------- #
class TestIntWidth:
    def test_guarded_and_widening_clean(self):
        assert lint_one(FIXTURES / "intwidth_good.py") == []

    def test_narrowing_flagged(self):
        findings = lint_one(FIXTURES / "intwidth_bad.py", "int-width")
        assert codes_at(findings) == {("IW001", 9), ("IW002", 15)}


# --------------------------------------------------------------------- #
# pass 3: phase discipline
# --------------------------------------------------------------------- #
class TestPhaseDiscipline:
    def test_good_phases_clean(self):
        assert lint_one(FIXTURES / "phase_good.py") == []

    def test_bad_phases_flagged(self):
        findings = lint_one(FIXTURES / "phase_bad.py", "phase-discipline")
        assert codes_at(findings) == {
            ("PH001", 5),
            ("PH002", 7),
            ("PH002", 8),
            ("PH003", 9),
        }

    def test_kernel_subphase_vocabulary_clean(self):
        """The bulk-kernel sub-phase names added to KNOWN_PHASES pass,
        including per-round suffixes."""
        assert lint_one(FIXTURES / "phase_kernel_good.py") == []

    def test_unknown_kernel_subphase_still_flagged(self):
        """Extending KNOWN_PHASES with the kernel sub-phases must not
        loosen PH001: near-miss spellings stay errors."""
        findings = lint_one(
            FIXTURES / "phase_kernel_bad.py", "phase-discipline"
        )
        assert codes_at(findings) == {
            ("PH001", 7),
            ("PH001", 9),
            ("PH001", 11),
        }
        assert all(f.code == "PH001" and f.severity == "error" for f in findings)

    def test_dist_vocabulary_clean(self):
        """The distributed driver's phase vocabulary (dist-* names with
        -levelN/-roundN suffixes, ghost-exchange, tracer receivers) passes."""
        assert lint_one(FIXTURES / "phase_dist_good.py") == []

    def test_unknown_dist_phase_still_flagged(self):
        """Near-miss dist spellings stay PH001 errors, including with a
        -rankN suffix (stripped by normalize_phase before the check)."""
        findings = lint_one(
            FIXTURES / "phase_dist_bad.py", "phase-discipline"
        )
        assert codes_at(findings) == {("PH001", 5), ("PH001", 6)}
        assert all(f.severity == "error" for f in findings)

    def test_rank_suffix_normalizes(self):
        from repro.obs.tracer import normalize_phase

        assert normalize_phase("dist-lp-round2") == "dist-lp"
        assert normalize_phase("dist-refinement-level3") == "dist-refinement"
        assert normalize_phase("shard-load-rank7") == "shard-load"
        assert normalize_phase("ghost-exchange") == "ghost-exchange"

    def test_real_dist_spans_resolve_statically(self):
        """Every span/phase name in the distributed driver must resolve
        and land in KNOWN_PHASES -- no PH003, no PH001."""
        from repro.analysis import phases

        pkg = Path(repro.__file__).parent
        for rel in ("dist/dpartitioner.py", "dist/dlp.py"):
            mod = load_module(pkg / rel)
            assert phases.run(mod) == [], rel


# --------------------------------------------------------------------- #
# suppressions and baseline mechanics
# --------------------------------------------------------------------- #
class TestSuppression:
    def test_inline_suppression_same_line(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    return np.empty(n)"
            "  # repro-lint: ignore[untracked-alloc] -- test fixture\n"
        )
        report = analysis.lint_paths([f])
        assert report.findings == [] and report.suppressed == 1

    def test_inline_suppression_line_above_by_code(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    # repro-lint: ignore[UA001] -- test fixture\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        assert report.findings == [] and report.suppressed == 1

    def test_skip_file(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "# repro-lint: skip-file\n"
            "import numpy as np\n"
            "def g(n):\n"
            "    return np.empty(n)\n"
        )
        assert analysis.lint_paths([f]).findings == []

    def test_unrelated_suppression_does_not_hide(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    return np.empty(n)  # repro-lint: ignore[int-width]\n"
        )
        assert len(analysis.lint_paths([f]).findings) == 1


class TestBaseline:
    def _findings(self, path):
        return analysis.lint_paths([path]).findings

    def test_baseline_absorbs_known_findings(self, tmp_path):
        findings = self._findings(FIXTURES / "alloc_bad.py")
        bl = tmp_path / "b.json"
        baseline_mod.save(bl, findings)
        report = analysis.lint_paths([FIXTURES / "alloc_bad.py"], baseline=bl)
        assert report.new == [] and report.baselined == len(findings)

    def test_extra_occurrence_of_same_shape_is_new(self, tmp_path):
        findings = self._findings(FIXTURES / "alloc_bad.py")
        accepted = {fingerprint(f): 1 for f in findings}
        # a second allocation in the same function: same fingerprint,
        # count exceeds the accepted budget
        doubled = findings + [findings[0]]
        report = baseline_mod.apply(doubled, accepted)
        assert len(report.new) == 1

    def test_stale_entries_reported(self, tmp_path):
        bl = tmp_path / "b.json"
        baseline_mod.save(bl, self._findings(FIXTURES / "alloc_bad.py"))
        report = analysis.lint_paths([FIXTURES / "alloc_good.py"], baseline=bl)
        # alloc_bad has two sites -> two stale fingerprints
        assert len(report.stale_baseline) == 2

    def test_version_mismatch_rejected(self, tmp_path):
        bl = tmp_path / "b.json"
        bl.write_text(json.dumps({"version": 999, "findings": {}}))
        with pytest.raises(ValueError, match="version"):
            baseline_mod.load(bl)


# --------------------------------------------------------------------- #
# the real tree: self-test against the committed baseline
# --------------------------------------------------------------------- #
class TestSelfCheck:
    def test_package_matches_committed_baseline(self):
        """Acceptance: `repro lint --gate` exits 0 against the committed
        baseline -- lint drift must be fixed or re-baselined in the same
        change that introduces it."""
        rc = cli_main(["lint", "--gate", "--baseline", str(BASELINE)])
        assert rc == 0

    def test_gate_fails_on_new_finding(self, tmp_path):
        bad = tmp_path / "fresh.py"
        bad.write_text(
            "import numpy as np\ndef g(n):\n    return np.empty(n)\n"
        )
        rc = cli_main(
            ["lint", "--gate", "--baseline", str(BASELINE), str(bad)]
        )
        assert rc == 1

    def test_update_baseline_roundtrip(self, tmp_path):
        bl = tmp_path / "b.json"
        rc = cli_main(
            [
                "lint",
                "--update-baseline",
                "--baseline",
                str(bl),
                str(FIXTURES / "alloc_bad.py"),
            ]
        )
        assert rc == 0
        rc = cli_main(
            [
                "lint",
                "--gate",
                "--baseline",
                str(bl),
                str(FIXTURES / "alloc_bad.py"),
            ]
        )
        assert rc == 0

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        cli_main(
            [
                "lint",
                "--baseline",
                str(BASELINE),
                "--json",
                str(out),
                str(FIXTURES / "phase_bad.py"),
            ]
        )
        data = json.loads(out.read_text())
        assert data["total_findings"] == 4
        assert data["by_pass"]["phase-discipline"] == 4
        assert len(data["new_findings"]) == 4

    def test_real_spans_resolve_statically(self):
        """The analyzer must fully resolve every span/phase name in the
        driver and kernels -- no PH003 escape hatch on the real tree."""
        from repro.analysis import phases

        pkg = Path(repro.__file__).parent
        for rel in (
            "core/partitioner.py",
            "core/coarsening/coarsener.py",
            "core/coarsening/lp_clustering.py",
        ):
            mod = load_module(pkg / rel)
            assert phases.run(mod) == [], rel


class TestIntWidthFlow:
    def test_flow_good_clean_under_all_passes(self):
        assert lint_one(FIXTURES / "intwidth_flow_good.py") == []

    def test_flow_bad_flagged(self):
        findings = lint_one(FIXTURES / "intwidth_flow_bad.py", "int-width")
        assert codes_at(findings) == {("IW002", 14), ("IW001", 23)}


# --------------------------------------------------------------------- #
# suppression reasons
# --------------------------------------------------------------------- #
class TestSuppressionReasons:
    def test_reasoned_suppression_not_flagged_as_bare(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    # repro-lint: ignore[UA001] -- caller frees it\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        assert report.suppressed == 1
        assert report.bare_suppressions == []

    def test_bare_suppression_still_works_but_is_listed(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    # repro-lint: ignore[UA001]\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        # grace period: the suppression still applies...
        assert report.findings == [] and report.suppressed == 1
        # ...but the bare ignore is called out for the reason migration
        assert report.bare_suppressions == ["s.py:3"]
        assert "legacy bare ignore" in analysis.render_text(report)

    def test_doc_examples_are_not_suppressions(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            '"""Docs quoting ``# repro-lint: ignore[UA001]`` literally."""\n'
            "import numpy as np\n"
            "def g(n):\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        assert report.bare_suppressions == []
        assert len(report.findings) == 1  # UA001 still fires

    def test_repo_has_no_bare_ignores_left(self):
        pkg = Path(repro.__file__).parent
        report = analysis.lint_paths([pkg])
        assert report.bare_suppressions == []

    def test_reason_text_recorded_on_module(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "x = 1  # repro-lint: ignore[UA001] -- because reasons\n"
        )
        mod = load_module(f)
        assert mod.suppression_reasons[1] == "because reasons"


class TestUnknownSuppressions:
    def test_unknown_id_is_listed_and_suppresses_nothing(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    # repro-lint: ignore[no-such-pass] -- typo\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        assert len(report.findings) == 1 and report.suppressed == 0
        assert report.unknown_suppressions == ["s.py:3 [no-such-pass]"]
        text = analysis.render_text(report)
        assert "1 unknown ignore" in text and "s.py:3 [no-such-pass]" in text
        assert report.to_dict()["unknown_suppressions"] == [
            "s.py:3 [no-such-pass]"
        ]

    def test_known_ids_in_the_same_ignore_still_apply(self, tmp_path):
        """A stale token next to a live one: the live one suppresses, the
        stale one is named."""
        f = tmp_path / "s.py"
        f.write_text(
            "import numpy as np\n"
            "def g(n):\n"
            "    # repro-lint: ignore[UA001, UA002] -- no such code\n"
            "    return np.empty(n)\n"
        )
        report = analysis.lint_paths([f])
        assert report.findings == [] and report.suppressed == 1
        assert report.unknown_suppressions == ["s.py:3 [ua002]"]

    def test_passes_codes_and_all_are_known(self, tmp_path):
        f = tmp_path / "s.py"
        f.write_text(
            "a = 1  # repro-lint: ignore[int-width, IW002] -- known\n"
            "b = 2  # repro-lint: ignore[all] -- known\n"
        )
        assert analysis.lint_paths([f]).unknown_suppressions == []

    def test_code_table_matches_the_passes(self):
        """``PASS_CODES`` (what an ignore may name) lists exactly the codes
        each pass module can emit."""
        from repro.analysis import allocations, intwidth, phases
        from repro.analysis.core import PASS_CODES

        for mod in (allocations, intwidth, phases):
            text = Path(mod.__file__).read_text()
            emitted = set(re.findall(r'"([A-Z]{2}\d{3})"', text))
            assert emitted == set(PASS_CODES[mod.PASS_ID]), mod.PASS_ID

    def test_repo_has_no_unknown_ignores_left(self):
        pkg = Path(repro.__file__).parent
        report = analysis.lint_paths([pkg])
        assert report.unknown_suppressions == []


# --------------------------------------------------------------------- #
# SARIF export
# --------------------------------------------------------------------- #
class TestSarif:
    def _report(self):
        return analysis.lint_paths(
            [FIXTURES / "phase_bad.py", FIXTURES / "alloc_bad.py"]
        )

    def test_structure_and_levels(self):
        from repro.analysis.sarif import SARIF_VERSION, to_sarif

        log = to_sarif(self._report(), baselined=False)
        assert log["version"] == SARIF_VERSION
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        results = run["results"]
        assert {r["ruleId"] for r in results} <= rules
        assert {r["level"] for r in results} == {"error", "warning"}
        by_rule = {r["ruleId"]: r for r in results}
        assert by_rule["PH001"]["level"] == "error"
        assert by_rule["UA001"]["level"] == "warning"
        loc = by_rule["UA001"]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "alloc_bad.py"
        assert loc["region"]["startLine"] >= 1

    def test_fingerprints_match_baseline_identity(self):
        from repro.analysis.sarif import to_sarif

        report = self._report()
        log = to_sarif(report, baselined=False)
        prints = {
            r["partialFingerprints"]["reproLint/v1"]
            for r in log["runs"][0]["results"]
        }
        assert prints == {fingerprint(f) for f in report.findings}

    def test_cli_format_sarif(self, tmp_path, capsys):
        rc = cli_main(
            [
                "lint",
                "--baseline",
                str(BASELINE),
                "--format",
                "sarif",
                str(FIXTURES / "phase_bad.py"),
            ]
        )
        assert rc == 1  # new findings, no gate
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        # four sites, one finding each
        assert len(log["runs"][0]["results"]) == 4

    def test_cli_sarif_sidecar(self, tmp_path):
        out = tmp_path / "lint.sarif"
        rc = cli_main(
            [
                "lint",
                "--gate",
                "--baseline",
                str(BASELINE),
                "--sarif",
                str(out),
            ]
        )
        assert rc == 0
        log = json.loads(out.read_text())
        # a green gate exports an empty (but valid) results array
        assert log["runs"][0]["results"] == []


# --------------------------------------------------------------------- #
# engine vs runtime: the static verdicts against the scratch ledger
# --------------------------------------------------------------------- #
class TestEngineRuntimeAgreement:
    def test_scratch_ledger_drains_after_run(self):
        """UA001 drove every hot-path allocation onto the tracked scratch
        constructors; the runtime must agree.  With the scratch ledger
        installed, a full partition run charges scratch bytes, anything
        escaping into the result stays charged while the result is alive,
        and dropping the result drains the ledger to exactly zero -- no
        leaked charges and no double-frees."""
        import dataclasses
        import gc

        from repro.bench.instances import load_instance
        from repro.core import config as C
        from repro.core.partitioner import partition
        from repro.memory.tracker import MemoryTracker

        graph = load_instance("fem-grid")
        cfg = dataclasses.replace(
            C.terapart(),
            obs=C.ObsConfig(enabled=True, track_scratch=True),
        )
        tracker = MemoryTracker()
        result = partition(graph, 8, cfg, tracker=tracker)
        assert tracker.peak_breakdown.get("scratch", 0) > 0, (
            "the run never charged tracked scratch -- the migration "
            "regressed"
        )
        del result
        gc.collect()
        assert tracker.breakdown().get("scratch", 0) == 0


# --------------------------------------------------------------------- #
# vocabulary drift: KNOWN_PHASES vs the spans real runs emit
# --------------------------------------------------------------------- #
class TestPhaseVocabularyDrift:
    #: KNOWN_PHASES names that belong to the runtime cost model's kernel
    #: phases (runtime.record scopes), not the span
    #: tracer; they never appear as span names.
    RUNTIME_ONLY = frozenset({"fm-pass", "lp-refinement"})

    @pytest.fixture(scope="class")
    def observed_spans(self):
        import dataclasses

        from repro.bench.instances import load_instance
        from repro.core import config as C
        from repro.core.config import DistObsConfig
        from repro.core.partitioner import partition
        from repro.dist.dpartitioner import DistConfig, dpartition
        from repro.obs.tracer import normalize_phase

        graph = load_instance("fem-grid")
        names: set[str] = set()
        # the default two-phase configuration and the classic+FM one
        # together exercise every shared-memory span site
        for cfg in (
            dataclasses.replace(
                C.terapart(), obs=C.ObsConfig(enabled=True)
            ),
            dataclasses.replace(
                C.kaminpar(), obs=C.ObsConfig(enabled=True), use_fm=True
            ),
        ):
            result = partition(graph, 8, cfg)
            names |= {normalize_phase(s.name) for s in result.trace.spans}
        dresult = dpartition(
            graph,
            8,
            2,
            compressed=True,
            config=DistConfig(obs=DistObsConfig(enabled=True)),
        )
        for tracer in dresult.trace.rank_tracers:
            names |= {normalize_phase(s.name) for s in tracer.spans}
        return names

    def test_every_span_is_known(self, observed_spans):
        from repro.obs.tracer import KNOWN_PHASES

        assert observed_spans <= KNOWN_PHASES, (
            f"spans missing from KNOWN_PHASES: "
            f"{sorted(observed_spans - KNOWN_PHASES)}"
        )

    def test_no_dead_vocabulary(self, observed_spans):
        from repro.obs.tracer import KNOWN_PHASES

        unobserved = KNOWN_PHASES - observed_spans
        assert unobserved == self.RUNTIME_ONLY, (
            f"KNOWN_PHASES entries no smoke run emits: "
            f"{sorted(unobserved - self.RUNTIME_ONLY)} "
            f"(runtime-only allowlist: {sorted(self.RUNTIME_ONLY)})"
        )
