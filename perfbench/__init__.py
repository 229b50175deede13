"""perfbench: the repository's benchmark (see README.md in this directory).

Run it with ``python3 perfbench/run.py`` or ``python3 -m perfbench``.
"""
