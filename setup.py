"""Legacy setup shim for offline installs.

Without network access pip cannot fetch the ``wheel`` package that its
editable installs need, and ``pip install -e . --no-build-isolation``
fails with ``invalid command 'bdist_wheel'``. This file lets
``python setup.py develop --no-deps`` install the package in place with
setuptools alone.
"""
from setuptools import setup

setup()
