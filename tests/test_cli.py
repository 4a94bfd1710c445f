"""Tests for the command-line experiment runner."""

import pytest

from repro.bench.cli import build_parser, main


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_build_command_prints_table(capsys):
    code = main(["build", "--group", "secondary", "--n", "300",
                 "--length", "64", "--memory", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "construction sweep" in out
    assert "CTree" in out and "ADS+" in out


def test_query_command_exact(capsys):
    code = main(["query", "--n", "300", "--length", "64",
                 "--queries", "2", "--indexes", "CTree"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact query costs" in out
    assert "avg_pruned" in out


def test_space_command(capsys):
    code = main(["space", "--n", "300", "--length", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "leaf_fill" in out


def test_updates_command(capsys):
    code = main(["updates", "--n", "400", "--length", "64",
                 "--batches", "100", "--queries", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mixed insert/query workload" in out


def test_dataset_choice_validated():
    with pytest.raises(SystemExit):
        main(["build", "--dataset", "nonsense"])


def test_build_command_accepts_workers(capsys):
    code = main(["build", "--group", "secondary", "--n", "300",
                 "--length", "64", "--memory", "1.0", "--workers", "2"])
    assert code == 0
    assert "construction sweep" in capsys.readouterr().out


def test_query_batch_command(capsys):
    code = main(["query", "--n", "300", "--length", "64", "--queries", "2",
                 "--indexes", "CTree", "--batch", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "batched vs per-query" in out
    assert "answers_agree" in out


def test_parallel_command(capsys):
    code = main(["parallel", "--n", "400", "--length", "64",
                 "--workers", "1", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "parallel build scaling" in out
    assert "speedup" in out


@pytest.mark.parametrize("command", ["merge", "arena", "fetch", "sched"])
def test_oracle_comparison_subcommands_are_gone(command):
    """Their B-sides moved to tests/oracles.py (``sched``: its fixed
    plan was deleted); argparse rejects them."""
    with pytest.raises(SystemExit):
        main([command])


def test_query_batch_knn_works_with_default_indexes(capsys):
    """Regression: --batch --k 2 crashed on ADS+ (no k-NN override)."""
    code = main(["query", "--n", "300", "--length", "64", "--queries", "2",
                 "--batch", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ADS+" in out and "True" in out


def test_query_batch_rejects_approximate_mode():
    """Regression: --mode was silently ignored when --batch was given."""
    with pytest.raises(SystemExit):
        main(["query", "--n", "300", "--length", "64",
              "--batch", "--mode", "approximate"])


def test_k_without_batch_rejected():
    """Regression: --k was silently ignored unless --batch was given."""
    with pytest.raises(SystemExit):
        main(["query", "--n", "300", "--length", "64", "--k", "5"])
