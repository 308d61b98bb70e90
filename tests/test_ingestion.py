"""One validated door: config checks live in the ingestion code of cli.py.

An ast guard, read from the source as `tests/test_tolerances.py` reads it:
a `raise ConfigError` (or of its subclass UnsupportedFormat) anywhere but in
the functions that read and check a config is a check that a runner could
make after numerical work has started.  README's config anatomy and its
per-scenario bullets are checked against the keys each scenario reads and
its caps, in the manner of `tests/test_surface.py`, and the spy of
`conftest.late_config_errors` is shown to see a late config error.
"""

import ast
import re
from pathlib import Path

import pytest

import freedim as fd
import freedim.cli as cli
from conftest import late_config_errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freedim"

# The ingestion code: load_config, the checks it runs and the parsing
# helpers they call; the csv check main makes before any run; and
# emit_report, whose format refusals serve library callers.
INGESTION = {"load_config", "_check_keys", "_parse_matrix", "_list_of", "_positive_int",
             "_flag", "_check_algebra", "_check_dual_system", "_dual_shapes",
             "_check_cutoff", "_group_order", "_check_group", "_check_group_free",
             "_check_counterexample", "_check_format", "emit_report"}
CONFIG_ERRORS = {"ConfigError", "UnsupportedFormat"}


def config_error_raisers(source: str) -> list[str]:
    """The top-level functions of `source` (or "<module>") that raise a
    ConfigError or UnsupportedFormat by name."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            exc = node.exc.func if isinstance(node, ast.Raise) and isinstance(
                node.exc, ast.Call) else getattr(node, "exc", None)
            if isinstance(node, ast.Raise) and getattr(exc, "id", None) in CONFIG_ERRORS:
                found.append(getattr(top, "name", "<module>"))
    return found


def test_raisers_are_seen():
    source = ("def _run_x(c):\n    raise ConfigError('late')\n"
              "def f():\n    raise UnsupportedFormat\n"
              "def g():\n    raise TooLarge('x')\n")
    assert config_error_raisers(source) == ["_run_x", "f"]


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_config_errors_are_raised_by_ingestion_code_only(name):
    raisers = set(config_error_raisers((PACKAGE / f"{name}.py").read_text()))
    assert raisers <= (INGESTION if name == "cli" else set())


def test_ingestion_names_are_current():
    assert INGESTION <= set(config_error_raisers((PACKAGE / "cli.py").read_text()))


def test_spy_sees_a_late_config_error(tmp_path, monkeypatch):
    def late(gns):
        raise fd.ConfigError("late")

    with late_config_errors() as seen:
        monkeypatch.setattr(cli, "fisher_report", late)
        assert cli.main(["dual_system", "--config", str(ROOT / "configs" / "dual_fisher.json"),
                         "--output", str(tmp_path / "report.json")]) == 2
    assert seen == [(("build_algebra", "gns_structure"), "late")]


# ---------------------------------------------------------------------------
# README's config anatomy against the scenarios
# ---------------------------------------------------------------------------

def _anatomy() -> str:
    text = (ROOT / "README.md").read_text()
    return text[text.index("Config anatomy"):text.index("Output formats:")]


def _bullets(text: str) -> list[str]:
    return [b for b in re.split(r"\n(?=- )", text) if b.startswith("- ")]


def _named(text: str) -> set[str]:
    """Backticked names (last dotted part) and the keys of the jsonc block."""
    return ({w.split(".")[-1] for w in re.findall(r"`([\w.]+)`", text)}
            | set(re.findall(r'"(\w+)":', text)))


def _spelled(cap) -> str:
    """A cap as README writes it: 2^53, 64."""
    if cap >= 2**32 and cap & (cap - 1) == 0:
        return f"2^{cap.bit_length() - 1}"
    return str(cap)


KEYS = [(scenario, key) for scenario, entry in cli.SCENARIOS.items()
        for key in sorted(entry.keys | (cli._ALGEBRA_KEYS if "algebra" in entry.needs else set()))]

# The caps each scenario's check applies.
CAPS = {"delta": [cli._DELTA_MAX_DIM], "dual_system": [cli._DUAL_MAX_DIM],
        "cutoff": [cli._CUTOFF_MAX_RADII, cli._CUTOFF_MAX_DIM, cli._CUTOFF_MAX_OPS],
        "group_finite": [cli.ORDER_CAP], "group_free": [cli._FREE_MAX_RANK, cli.TABLE_ORDER_CAP],
        "counterexample": []}


@pytest.mark.parametrize("scenario,key", KEYS, ids=[f"{s}-{k}" for s, k in KEYS])
def test_readme_anatomy_names_each_key(scenario, key):
    anatomy = _anatomy()
    if key in cli._ALGEBRA_KEYS or key == "seed":
        # the jsonc block, and the seed's own bullet
        assert key in _named(anatomy)
    else:
        own = [b for b in _bullets(anatomy) if b.startswith(f"- `{scenario}`")]
        assert any(key in _named(b) for b in own), (scenario, key)


CAPPED = [(scenario, cap) for scenario, caps in CAPS.items() for cap in caps]


@pytest.mark.parametrize("scenario,cap", CAPPED, ids=[f"{s}-{c}" for s, c in CAPPED])
def test_readme_anatomy_states_each_cap(scenario, cap):
    spelled = re.compile(rf"(?<![\w.^]){re.escape(_spelled(cap))}(?![\w.^])")
    assert any(f"`{scenario}`" in b and spelled.search(b) for b in _bullets(_anatomy())), \
        (scenario, cap)


def test_caps_cover_the_scenarios():
    assert set(CAPS) == set(cli.SCENARIOS)
