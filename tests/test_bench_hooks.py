"""The benchmark's layer wrappers find every detproc attribute they wrap."""

import importlib
import pkgutil
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_hook_resolves(monkeypatch):
    # a renamed hook turns the benchmark's per-layer metrics into null;
    # here it fails the test suite instead
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import spans

    from detproc import kernels

    matrix = vars(kernels.AssembledKernel)["matrix"]
    restore, absent = child.instrument(spans.Recorder())
    for undo in restore:
        undo()
    assert absent == []
    assert vars(kernels.AssembledKernel)["matrix"] is matrix


def _readme_commands() -> list:
    """The `detproc ...` lines of README's CLI block, without `detproc `."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split(" ", 1)[1] for line in block.splitlines()
            if line.startswith("detproc ")]


def test_benchmark_cli_commands_are_the_readme_commands_and_parse(monkeypatch):
    # the benchmark runs every CLI_COMMANDS line and counts a nonzero exit
    # as a failed operation; an option removed from the parser fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    from detproc import cli

    commands = [command for _, command in run.CLI_COMMANDS]
    assert commands == _readme_commands()
    parser = cli._build_parser()
    for command in commands:
        parser.parse_args(command.split())


def test_readme_cli_section_names_exactly_the_parser_options():
    # an option deleted from the parser stayed in README, and options the
    # parser takes went undocumented
    from detproc import cli

    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    options = {option for sub in subparsers.values() for action in sub._actions
               for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section)) == options


def test_readme_cli_section_names_exactly_the_parser_choices():
    # the kernel families plancherel-l and whittaker-l went unnamed; each
    # choice option's bullet lists them as `subcommand` (`choice`, ...)
    from detproc import cli

    subparsers = next(a for a in cli._build_parser()._actions
                      if a.dest == "command").choices
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    for option in ("--family", "--suite", "--study"):
        parser = {name: set(action.choices) for name, sub in subparsers.items()
                  for action in sub._actions if option in action.option_strings}
        line = next(line for line in section.splitlines()
                    if line.startswith(f"* `{option}`"))
        readme = {name: set(re.findall(r"`([\w-]+)`", choices))
                  for name, choices in re.findall(r"`([\w-]+)` \(([^)]*)\)", line)}
        assert readme == parser, option


def test_readme_cli_section_states_every_pinned_tolerance():
    # each verdict's tolerance is a constant of cli that no option moves;
    # README states each one with its value
    from detproc import cli

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    pinned = {name: value for name, value in vars(cli).items()
              if re.fullmatch(r"[A-Z_]+_(TOL|BAND)", name)}
    assert len(pinned) == 5
    for name, value in pinned.items():
        stated = re.findall(rf"`{name}` = ([\d.e+-]+)", section)
        assert [float(v) for v in stated] == [value], name


def _has(owner, dotted: str) -> bool:
    """Whether owner.a.b... exists; a dataclass field without a default counts."""
    *path, last = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", {})


def _layout_rows() -> dict:
    """README's module table: each module's name and the names its row quotes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `detproc.")]
    return {module.strip().strip("`"): re.findall(r"`([A-Za-z_][\w.]*)`", contents)
            for module, contents in rows}


def test_readme_layout_table_names_only_real_attributes():
    # a renamed or deleted attribute stayed in README's module table
    rows = _layout_rows()
    assert rows
    for module, names in rows.items():
        owner = importlib.import_module(module)
        for name in names:
            assert _has(owner, name), f"{owner.__name__} has no {name}"


def test_readme_layout_table_names_every_export():
    # eighteen exports went unnamed, among them special.whittaker_w_complex,
    # oracle.Window and drhp.suite_two_point; every module that declares
    # __all__ has a row
    import detproc

    rows = _layout_rows()
    for info in pkgutil.iter_modules(detproc.__path__):
        module = importlib.import_module(f"detproc.{info.name}")
        exports = set(getattr(module, "__all__", ()))
        assert exports <= set(rows.get(module.__name__, ())), \
            f"{module.__name__}: {sorted(exports - set(rows.get(module.__name__, ())))}"
