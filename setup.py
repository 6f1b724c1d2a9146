"""Build script.

The compiled cover-search kernel (src/dbkdom/_cover_ext.c) is plain C
against the CPython API and builds with any C compiler. It is optional:
when no compiler is available, or the build fails, the package installs
without it and falls back to the pure Python kernel at import time.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible, warn and continue otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: skipping compiled kernel ({exc}); "
                  "the pure Python kernel will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc}); "
                  "the pure Python kernel will be used")


setup(
    ext_modules=[
        Extension("dbkdom._cover_ext", ["src/dbkdom/_cover_ext.c"],
                  extra_compile_args=["-O3"]),
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
