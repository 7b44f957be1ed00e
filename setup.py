"""Packaging for the R3-DLA reproduction.

numpy is the one runtime dependency (the Fig. 5 / Fig. 14 fetch-buffer
model); the ``test`` extra adds what the test suite needs.  ``pip install -e
".[test]"`` exposes the ``repro`` console entry point (campaign CLI) without
any PYTHONPATH setup.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).parent
_README = _ROOT / "README.md"
#: Single source of truth: repro.__version__ (parsed, not imported, so the
#: build needs no importable package).
_VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (_ROOT / "src" / "repro" / "__init__.py").read_text(),
).group(1)

setup(
    name="repro-r3dla",
    version=_VERSION,
    description="Pure-Python reproduction of R3-DLA (HPCA'19): decoupled "
                "look-ahead simulator, experiment engine and campaign CLI",
    long_description=_README.read_text() if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    # pytest.ini's --benchmark-disable needs pytest-benchmark.
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={
        "console_scripts": [
            "repro = repro.campaign.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
)
