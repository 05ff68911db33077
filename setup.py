"""Package metadata; installing is optional (the repo runs from source
with ``PYTHONPATH=src``).

``pip install --no-build-isolation -e .`` takes the PEP 660 editable
path, which needs the ``wheel`` package next to setuptools.  Where
``wheel`` is missing, ``python setup.py develop`` installs the same
editable package (and the ``repro`` command) offline.  The version is
read from ``src/repro/__init__.py`` so it has one source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-qsdnn",
    version=VERSION,
    description=(
        "QS-DNN: RL-based search for DNN primitive selection on "
        "heterogeneous embedded systems"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
