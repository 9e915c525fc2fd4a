"""Documentation guards: docs must reference real modules and files."""

import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)


class TestDocsExist:
    def test_required_documents_present(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
            assert (ROOT / name).exists(), name
        assert (ROOT / "docs").is_dir()
        assert len(list((ROOT / "docs").glob("*.md"))) >= 5


class TestModuleReferences:
    MODULE_PATTERN = re.compile(r"`(repro(?:\.[a-z_]+)+)`")

    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_referenced_modules_import(self, doc):
        import importlib

        text = doc.read_text()
        for match in set(self.MODULE_PATTERN.findall(text)):
            parts = match.split(".")
            # Try as module, else as attribute of the parent module.
            try:
                importlib.import_module(match)
                continue
            except ImportError:
                pass
            parent = importlib.import_module(".".join(parts[:-1]))
            assert hasattr(parent, parts[-1]), f"{doc.name}: {match}"


def expand_braces(path):
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]``, every group expanded."""
    group = re.search(r"\{([^{}]*)\}", path)
    if group is None:
        return [path]
    head, tail = path[: group.start()], path[group.end() :]
    return [
        expanded
        for choice in group.group(1).split(",")
        for expanded in expand_braces(head + choice + tail)
    ]


class TestFileReferences:
    FILE_PATTERN = re.compile(
        r"`((?:src|tests|benchmarks|examples|docs|repro)/[A-Za-z0-9_./{},]+"
        r"\.(?:py|md))`"
    )

    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_referenced_files_exist(self, doc):
        text = doc.read_text()
        for match in set(self.FILE_PATTERN.findall(text)):
            for path in expand_braces(match):
                # A bare ``repro/...`` path names the package under src/.
                if path.startswith("repro/"):
                    path = "src/" + path
                assert (ROOT / path).exists(), f"{doc.name}: {path}"

    def test_brace_groups_expand(self):
        assert expand_braces("repro/{a,b}/{c,d}.py") == [
            "repro/a/c.py", "repro/a/d.py", "repro/b/c.py", "repro/b/d.py",
        ]
        assert expand_braces("src/repro/cli.py") == ["src/repro/cli.py"]

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"examples/([a-z_]+)\.py", text):
            assert (ROOT / "examples" / f"{match}.py").exists(), match


class TestResultWriters:
    @staticmethod
    def committed_tables():
        """Stems of the tracked ``results/*.txt`` (``run-all`` also writes
        untracked reports there); every file when not in a git checkout."""
        try:
            tracked = subprocess.run(
                ["git", "ls-files", "results/*.txt"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.split()
        except (OSError, subprocess.CalledProcessError):
            tracked = [str(p) for p in (ROOT / "results").glob("*.txt")]
        return {pathlib.Path(path).stem for path in tracked}

    def test_every_committed_table_has_a_writer(self):
        """The committed tables are exactly what the benchmarks write: a
        committed table nothing regenerates, or a writer whose table is
        not committed, fails."""
        written = {
            name
            for bench in (ROOT / "benchmarks").glob("test_*.py")
            for name in re.findall(r'save_report\(\s*"([^"]+)"', bench.read_text())
        }
        assert written and self.committed_tables() == written


class TestMetricCatalog:
    def test_catalog_lists_exactly_the_emitted_metrics(self):
        """``docs/observability.md``'s catalog cannot drift from the
        table the hooks declare from: same rows, same order of labels,
        same types."""
        from repro.obs import CATALOG

        catalog = (ROOT / "docs/observability.md").read_text()
        documented = [
            (name, kind, tuple(re.findall(r"`([a-z_]+)`", labels)))
            for name, kind, labels in re.findall(
                r"^\| `(smiler_[a-z_]+)` \| ([a-z]+) \| ([^|]*) \|",
                catalog, flags=re.M,
            )
        ]
        assert len(documented) == len(set(documented))
        assert sorted(documented) == sorted(
            (spec.name, spec.kind, spec.labels) for spec in CATALOG.values()
        )
