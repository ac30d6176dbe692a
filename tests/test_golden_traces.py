"""Golden-trace corpus tests: the pinned runs still reproduce exactly."""

from __future__ import annotations

import json

import pytest

from repro.verify.golden import (
    GOLDEN_CASES,
    check_corpus,
    default_corpus_dir,
    load_workload,
    run_golden,
    write_corpus,
)


class TestCorpusPinned:
    def test_corpus_directory_is_complete(self):
        root = default_corpus_dir()
        for name in GOLDEN_CASES:
            for filename in ("workload.json", "run.jsonl", "summary.json"):
                assert (root / name / filename).is_file(), f"{name}/{filename}"

    def test_seed_corpus_parses(self):
        data = json.loads(
            (default_corpus_dir() / "seeds.json").read_text(encoding="utf-8")
        )
        assert data["seeds"] and all(
            isinstance(seed, int) for seed in data["seeds"]
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_pinned_case_still_reproduces(self, name):
        problems = check_corpus(names=[name])
        assert not problems, problems

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_pinned_workload_reloads(self, name):
        trace, capacity = load_workload(
            default_corpus_dir() / name / "workload.json"
        )
        built_trace, built_capacity = GOLDEN_CASES[name].build()
        assert len(trace.workflows) == len(built_trace.workflows)
        assert len(trace.adhoc_jobs) == len(built_trace.adhoc_jobs)
        assert dict(capacity.base) == dict(built_capacity.base)


class TestDriftDetection:
    def test_tampered_corpus_is_caught(self, tmp_path):
        """Drift detection end to end: regenerate into a sandbox, tamper
        with one pinned event, and the check must name the divergence."""
        write_corpus(tmp_path, names=["diamond"])
        assert check_corpus(tmp_path, names=["diamond"]) == []

        run_file = tmp_path / "diamond" / "run.jsonl"
        lines = run_file.read_text(encoding="utf-8").splitlines()
        event = json.loads(lines[5])
        event["slot"] = event.get("slot", 0) + 7
        lines[5] = json.dumps(event)
        run_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

        problems = check_corpus(tmp_path, names=["diamond"])
        assert problems and "diamond" in problems[0]

    def test_missing_case_is_reported(self, tmp_path):
        problems = check_corpus(tmp_path, names=["mixed"])
        assert problems and "no pinned corpus" in problems[0]

    def test_golden_runs_are_validator_clean(self):
        # run_golden raises VerificationError if the pinned schedule is
        # ever invalid; reaching here means all three validate.
        events, summary = run_golden(GOLDEN_CASES["diamond"])
        assert events and "jobs_missed" in summary
        assert all("ts" not in event for event in events)
