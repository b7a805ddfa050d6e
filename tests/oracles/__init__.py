"""Reference oracles: the straightforward implementations that the fast
paths in ``src/`` replaced, kept here only to check them against."""
