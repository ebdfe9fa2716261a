"""Import the package from a source tree and warm it up.

Run as a script (`python3 bench/loader.py <src> <scratch-dir>`) it performs
one set-up in a fresh interpreter and exits; the benchmark times such runs
as setup_s.
"""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PACKAGE = "filament_prng"
LAYERS = ("cli", "serialize", "prng", "modular", "gauss", "filament", "stattest", "verify")

# One tiny call of each CLI command; "@OUT" is replaced by a scratch file.
WARM_UP = (
    ("generate", "--kind", "eicg", "-q", "7", "-n", "7", "-o", "@OUT"),
    ("verify", "gauss", "--qmax", "5"),
    ("stats", "serial", "--kind", "eicg", "-q", "11", "-k", "2", "--lags", "0,1", "-o", "@OUT"),
    ("polygon", "-M", "3", "-q", "3", "-o", "@OUT"),
)


class SetupError(Exception):
    pass


def load(src: Path) -> dict:
    """The package's modules by short name, imported from `src` only."""
    src = Path(src).resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    if src not in Path(package.__file__).resolve().parents:
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not {src}")
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def warm_up(cli, scratch: Path) -> None:
    for i, argv in enumerate(WARM_UP):
        argv = [str(Path(scratch) / f"warm-up-{i}") if a == "@OUT" else a for a in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        if rc != 0:
            raise SetupError(f"warm-up {argv} exited {rc}: {err.getvalue().strip()}")


if __name__ == "__main__":
    try:
        warm_up(load(Path(sys.argv[1]))["cli"], Path(sys.argv[2]))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        sys.exit(2)
