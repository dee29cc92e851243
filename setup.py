"""Setup script for environments whose setuptools cannot build PEP 517 wheels.

``pip install -e . --no-build-isolation`` (or ``--no-use-pep517``) works with
this file even when the ``wheel`` package is unavailable.  It holds all the
project metadata; the version is read from ``src/repro/__init__.py`` so the
two never disagree.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'Evaluation of Dataframe Libraries for Data Preparation "
        "on a Single Machine' (EDBT 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
