"""Smoke tests: every bundled example must run and print sensibly."""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "per-packet byte overhead" in out
    assert "switch config" in out


def test_sdm_deployment(capsys):
    out = run_example("sdm_deployment", capsys)
    assert "Hermes:" in out
    assert "merging saved" in out


def test_int_telemetry(capsys):
    out = run_example("int_telemetry", capsys)
    assert "A_max" in out
    assert "RPC" in out


def test_nfv_chain(capsys):
    out = run_example("nfv_chain", capsys)
    assert "Hermes split the chain" in out
    assert "piggyback headers" in out


def test_operations_day2(capsys):
    out = run_example("operations_day2", capsys)
    assert "counter=3" in out
    assert "failed" in out
    assert "disruption" in out


def test_pint_bounded_telemetry(capsys):
    out = run_example("pint_bounded_telemetry", capsys)
    assert "PINT budget" in out
    assert "collector complete" in out
