"""perfbench: the repo's one performance benchmark, kernel to served request.

See ``perfbench/README.md``. Entry point: ``python3 perfbench/run.py``.
"""
