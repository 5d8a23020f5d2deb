"""Legacy setup shim: `python setup.py develop` installs the package in place
on environments without the `wheel` package, which PEP 660 editable builds
(`pip install -e .`) need.  All real metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
