import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from acceptance_log import RESULTS
from cmapss_synth import write_subset

from fmlp_rul import cli
from fmlp_rul.cmapss import load_subset
from fmlp_rul.fmlp import load_model

# The CLI properties run the program in process: an example's time varies
# with what it reads, and each example reuses the test's tmp_path and capsys.
settings.register_profile(
    "cli", deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


def _subset_root(corpus_dir, subset_id):
    write_subset(corpus_dir, subset_id)
    return corpus_dir


@pytest.fixture(scope="session")
def fd001_root(corpus_dir):
    return _subset_root(corpus_dir, "FD001")


@pytest.fixture(scope="session")
def fd002_root(corpus_dir):
    return _subset_root(corpus_dir, "FD002")


@pytest.fixture(scope="session")
def fd003_root(corpus_dir):
    return _subset_root(corpus_dir, "FD003")


@pytest.fixture(scope="session")
def fd004_root(corpus_dir):
    return _subset_root(corpus_dir, "FD004")


@pytest.fixture(scope="session")
def fd001_subset(fd001_root):
    return load_subset(fd001_root, "FD001")


@pytest.fixture(scope="session")
def fd002_subset(fd002_root):
    return load_subset(fd002_root, "FD002")


def _run_pipeline(root, subset_id, out):
    started = time.monotonic()
    train_code = cli.main(
        ["train", "--data-root", str(root), "--subset", subset_id, "--out", str(out)]
    )
    eval_code = cli.main(
        [
            "evaluate",
            "--model", str(out / "artifact.json"),
            "--data-root", str(root),
            "--subset", subset_id,
            "--out", str(out),
        ]
    )
    return SimpleNamespace(
        out=out,
        train_code=train_code,
        eval_code=eval_code,
        seconds=time.monotonic() - started,
    )


@pytest.fixture(scope="session")
def fd001_run(fd001_root, tmp_path_factory):
    """Full default-config train + evaluate on the FD001-format corpus."""
    return _run_pipeline(fd001_root, "FD001", tmp_path_factory.mktemp("fd001_run"))


@pytest.fixture(scope="session")
def fd002_run(fd002_root, tmp_path_factory):
    return _run_pipeline(fd002_root, "FD002", tmp_path_factory.mktemp("fd002_run"))


@pytest.fixture(scope="session")
def fd001_pipeline(fd001_run):
    with open(fd001_run.out / "artifact.json", encoding="utf-8") as fh:
        return load_model(fh)


@pytest.fixture(scope="session")
def fd002_pipeline(fd002_run):
    with open(fd002_run.out / "artifact.json", encoding="utf-8") as fh:
        return load_model(fh)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {num} ({name}): {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
