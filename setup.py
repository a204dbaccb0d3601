"""Package metadata and the ``optrr`` console script.

The metadata lives here; the repository has no ``pyproject.toml``.
``pip install -e .`` installs the ``repro`` package from the ``src/`` layout
and the ``optrr`` command.  pip builds editable installs through an editable
wheel, so it needs the ``wheel`` package; where that is missing,
``python setup.py develop`` installs the same thing.  The version is read
from ``src/repro/__init__.py``, its single source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="optrr",
    version=VERSION,
    description=(
        "OptRR: optimizing randomized response schemes for privacy-preserving "
        "data mining (Huang & Du, ICDE 2008), reproduced"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["optrr = repro.cli:main"]},
)
