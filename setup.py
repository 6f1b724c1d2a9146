"""Build script.

The compiled cover-search kernel (src/dbkdom/_cover_ext.c) is plain C
against the CPython API and builds with any C compiler. It is optional:
when no compiler is available, or the build fails, setuptools warns and
installs the package without it, and the pure Python kernel is used.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("dbkdom._cover_ext", ["src/dbkdom/_cover_ext.c"],
              extra_compile_args=["-O3"], optional=True),
])
