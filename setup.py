"""Build script: compiles the Cython kernel core.

The package works without the extension (a pure-Python twin of the kernels
is selected at import time), so a missing Cython is tolerated: the extension
is then not built. A failed compile with Cython present is not tolerated.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/fabcr/_core/_kernels_cy.pyx"],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )
except ImportError:
    ext_modules = []

setup(ext_modules=ext_modules)
