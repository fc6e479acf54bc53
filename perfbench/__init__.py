"""End-to-end serving benchmark for ``repro-tpp serve`` (see ``run.py``)."""
