import pathlib
import shutil
import subprocess

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"
HELPERS_DIR = pathlib.Path(__file__).parent / "helpers"


@pytest.fixture(scope="session")
def golden_rsp_path() -> pathlib.Path:
    return DATA_DIR / "modified_toeplitz_n128_m64.rsp"


@pytest.fixture(scope="session")
def golden_rsp_text(golden_rsp_path) -> str:
    return golden_rsp_path.read_text()


@pytest.fixture(scope="session")
def thirdparty_bin(tmp_path_factory) -> pathlib.Path:
    """Compile the external C implementation used as a validation target.

    A compiled child process keeps per-case spawn cost low enough for the
    10^4-sample acceptance run; a Python child would be ~3x slower to
    start.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.fail("no C compiler available to build the validation target")
    out = tmp_path_factory.mktemp("thirdparty") / "thirdparty"
    src = HELPERS_DIR / "thirdparty.c"
    # warnings fail the build, so a slip in the stand-in cannot pass unseen
    subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-o", str(out), str(src)], check=True)
    return out


def thirdparty_command(
    binary, extractor_type: str, n: int, m: int, mutation: str = "none", fmt: str = "binary-string"
) -> str:
    """Command template invoking the compiled C validation target in format ``fmt``."""
    flag = "--hex " if fmt == "hex" else ""
    return f"{binary} {flag}{extractor_type} {n} {m} {mutation} $SEED$ $INPUT$"
