"""Host-time benchmark of the BLAS stack (see ``run.py``)."""
