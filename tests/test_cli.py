"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.generators import powerlaw_cluster_graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_protect_defaults(self):
        args = build_parser().parse_args(["protect"])
        assert args.dataset == "arenas-email"
        assert args.method == "SGB-Greedy"
        assert args.budget == [20]

    def test_method_choices_follow_live_registry(self, capsys):
        from repro.service import register_method, unregister_method
        from repro.core.sgb import sgb_greedy

        with pytest.raises(SystemExit):
            build_parser().parse_args(["protect", "--method", "Oracle"])
        error = capsys.readouterr().err
        assert "SGB-Greedy" in error  # the valid names are listed

        @register_method("Plugin-Method", kind="greedy", order=999)
        def _run(problem, budget, engine, seed, **options):
            return sgb_greedy(problem, budget, engine=engine)

        try:
            args = build_parser().parse_args(["protect", "--method", "Plugin-Method"])
            assert args.method == "Plugin-Method"
        finally:
            unregister_method("Plugin-Method")

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig3", "--scale", "quick"])
        assert args.name == "fig3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestProtectCommand:
    def test_protect_named_dataset(self, capsys):
        exit_code = main(
            [
                "protect",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--budget",
                "10",
                "--method",
                "SGB-Greedy",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SGB-Greedy" in output
        assert "fully protected" in output

    def test_protect_edge_list_with_output_and_utility(self, tmp_path, capsys):
        graph = powerlaw_cluster_graph(80, 3, 0.5, seed=1)
        source = tmp_path / "input.txt"
        write_edge_list(graph, source)
        released_path = tmp_path / "released.txt"
        exit_code = main(
            [
                "protect",
                "--edge-list",
                str(source),
                "--targets",
                "3",
                "--budget",
                "15",
                "--utility",
                "--output",
                str(released_path),
            ]
        )
        assert exit_code == 0
        assert released_path.exists()
        released = read_edge_list(released_path)
        assert released.number_of_edges() < graph.number_of_edges()
        output = capsys.readouterr().out
        assert "average utility loss" in output


class TestProtectSweepAndJson:
    def test_budget_sweep_with_json(self, tmp_path, capsys):
        from repro.core.model import ProtectionResult

        json_path = tmp_path / "results.json"
        exit_code = main(
            [
                "protect",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--budget",
                "5",
                "10",
                "15",
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert isinstance(payload, list) and len(payload) == 3
        results = [ProtectionResult.from_dict(entry) for entry in payload]
        assert [r.budget for r in results] == [5, 10, 15]
        # the sweep shares one session: every result echoes its request and
        # reports the reused index
        for result in results:
            meta = result.extra["service"]
            assert meta["reused_index"] is True
            assert meta["request"]["method"] == "SGB-Greedy"
        output = capsys.readouterr().out
        assert output.count("fully protected:") == 3

    def test_single_budget_json_is_object(self, tmp_path):
        json_path = tmp_path / "result.json"
        exit_code = main(
            [
                "protect",
                "--dataset",
                "small-social",
                "--targets",
                "3",
                "--budget",
                "6",
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert isinstance(payload, dict)
        assert payload["budget"] == 6


class TestBuildIndexCommand:
    def test_build_index_then_protect_from_snapshot(self, tmp_path, capsys):
        snapshot_path = tmp_path / "small.tppsnap"
        exit_code = main(
            [
                "build-index",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--seed",
                "1",
                "--output",
                str(snapshot_path),
            ]
        )
        assert exit_code == 0
        assert snapshot_path.exists()
        output = capsys.readouterr().out
        assert "snapshot written to" in output
        assert "target subgraphs" in output

        exit_code = main(
            ["protect", "--index-file", str(snapshot_path), "--budget", "10"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cold-started" in output
        assert "fully protected" in output

    def test_snapshot_protect_matches_direct_protect(self, tmp_path, capsys):
        """The cold-started run selects the same protectors as a direct run
        on the same dataset/seed — the snapshot captures the whole instance."""
        snapshot_path = tmp_path / "same.tppsnap"
        common = ["--dataset", "small-social", "--targets", "4", "--seed", "7"]
        assert main(["build-index", *common, "--output", str(snapshot_path)]) == 0
        capsys.readouterr()

        direct_json = tmp_path / "direct.json"
        snap_json = tmp_path / "snap.json"
        assert main(
            ["protect", *common, "--budget", "8", "--json", str(direct_json)]
        ) == 0
        assert main(
            [
                "protect",
                "--index-file",
                str(snapshot_path),
                "--budget",
                "8",
                "--json",
                str(snap_json),
            ]
        ) == 0
        direct = json.loads(direct_json.read_text())
        cold = json.loads(snap_json.read_text())
        assert cold["protectors"] == direct["protectors"]
        assert cold["similarity_trace"] == direct["similarity_trace"]
        assert cold["extra"]["service"]["index_source"] == "snapshot"
        assert direct["extra"]["service"]["index_source"] == "built"

    def test_build_index_requires_output(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-index"])


class TestExperimentCommand:
    def test_experiment_table5_with_json(self, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        exit_code = main(
            ["experiment", "table5", "--scale", "quick", "--json", str(json_path)]
        )
        assert exit_code == 0
        assert json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "utility_loss"
        output = capsys.readouterr().out
        assert "utility loss" in output


class TestApplyDeltaCommand:
    @pytest.fixture
    def snapshot_path(self, tmp_path, capsys):
        path = tmp_path / "base.tppsnap"
        assert main(
            [
                "build-index",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--seed",
                "1",
                "--output",
                str(path),
            ]
        ) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def pick_edges(snapshot_path):
        """A deletable phase-1 edge and an insertable non-edge of the snapshot."""
        from repro.core.model import TPPProblem
        from repro.graphs.graph import canonical_edge

        problem = TPPProblem.from_snapshot(snapshot_path)
        phase1 = problem.phase1_graph
        target_set = {canonical_edge(*target) for target in problem.targets}
        deletion = next(
            edge
            for edge in sorted(phase1.edges())
            if canonical_edge(*edge) not in target_set
        )
        nodes = sorted(phase1.nodes())
        insertion = next(
            (u, v)
            for u in nodes
            for v in nodes[::-1]
            if u != v
            and canonical_edge(u, v) not in target_set
            and not phase1.has_edge(u, v)
        )
        return deletion, insertion

    def test_inline_ops_update_and_record_a_delta(
        self, tmp_path, snapshot_path, capsys
    ):
        deletion, insertion = self.pick_edges(snapshot_path)
        updated_path = tmp_path / "updated.tppsnap"
        delta_path = tmp_path / "update.tppdelta"
        exit_code = main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--delete",
                str(deletion[0]),
                str(deletion[1]),
                "--insert",
                str(insertion[0]),
                str(insertion[1]),
                "--output",
                str(updated_path),
                "--save-delta",
                str(delta_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "applied 1 insert(s) / 1 delete(s)" in output
        assert "updated snapshot written to" in output
        assert "delta recorded to" in output
        assert updated_path.exists() and delta_path.exists()

        # the recorded delta replays onto the base snapshot bit-identically
        from repro.persistence import verify_snapshot_file

        replay_path = tmp_path / "replayed.tppsnap"
        assert main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--delta-file",
                str(delta_path),
                "--output",
                str(replay_path),
            ]
        ) == 0
        capsys.readouterr()
        assert (
            verify_snapshot_file(replay_path)["content_hash"]
            == verify_snapshot_file(updated_path)["content_hash"]
        )

    def test_stale_delta_file_is_refused(self, tmp_path, snapshot_path, capsys):
        deletion, insertion = self.pick_edges(snapshot_path)
        updated_path = tmp_path / "updated.tppsnap"
        delta_path = tmp_path / "update.tppdelta"
        assert main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--insert",
                str(insertion[0]),
                str(insertion[1]),
                "--output",
                str(updated_path),
                "--save-delta",
                str(delta_path),
            ]
        ) == 0
        capsys.readouterr()
        # replaying against the *updated* snapshot: wrong parent state
        exit_code = main(
            [
                "apply-delta",
                "--index-file",
                str(updated_path),
                "--delta-file",
                str(delta_path),
                "--output",
                str(tmp_path / "never.tppsnap"),
            ]
        )
        assert exit_code == 1
        assert "apply-delta:" in capsys.readouterr().err
        assert not (tmp_path / "never.tppsnap").exists()

    def test_deleting_a_missing_edge_is_refused(
        self, tmp_path, snapshot_path, capsys
    ):
        _, insertion = self.pick_edges(snapshot_path)
        exit_code = main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--delete",
                str(insertion[0]),
                str(insertion[1]),
                "--output",
                str(tmp_path / "never.tppsnap"),
            ]
        )
        assert exit_code == 1
        assert "apply-delta:" in capsys.readouterr().err

    def test_delta_file_and_inline_ops_are_exclusive(
        self, tmp_path, snapshot_path, capsys
    ):
        exit_code = main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--delta-file",
                str(tmp_path / "whatever.tppdelta"),
                "--insert",
                "1",
                "2",
                "--output",
                str(tmp_path / "never.tppsnap"),
            ]
        )
        assert exit_code == 2
        assert "not both" in capsys.readouterr().err

    def test_empty_delta_is_refused(self, tmp_path, snapshot_path, capsys):
        exit_code = main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--output",
                str(tmp_path / "never.tppsnap"),
            ]
        )
        assert exit_code == 2
        assert "nothing to apply" in capsys.readouterr().err


class TestVerifyIndexCommand:
    def test_reports_snapshot_and_delta_files(self, tmp_path, capsys):
        snapshot_path = tmp_path / "base.tppsnap"
        assert main(
            [
                "build-index",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--seed",
                "1",
                "--output",
                str(snapshot_path),
            ]
        ) == 0
        deletion, _ = TestApplyDeltaCommand.pick_edges(snapshot_path)
        delta_path = tmp_path / "update.tppdelta"
        assert main(
            [
                "apply-delta",
                "--index-file",
                str(snapshot_path),
                "--delete",
                str(deletion[0]),
                str(deletion[1]),
                "--output",
                str(tmp_path / "updated.tppsnap"),
                "--save-delta",
                str(delta_path),
            ]
        ) == 0
        capsys.readouterr()
        exit_code = main(
            ["verify-index", str(snapshot_path), str(delta_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "OK snapshot" in output
        assert "OK delta" in output

    def test_invalid_file_fails_the_command(self, tmp_path, capsys):
        good = tmp_path / "good.tppsnap"
        assert main(
            [
                "build-index",
                "--dataset",
                "small-social",
                "--targets",
                "4",
                "--seed",
                "1",
                "--output",
                str(good),
            ]
        ) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.tppdelta"
        bad.write_bytes(b"definitely not a snapshot")
        exit_code = main(["verify-index", str(good), str(bad)])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "OK snapshot" in captured.out
        assert "INVALID" in captured.err
