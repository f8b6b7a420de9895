"""Layer-by-layer benchmark for mhray (entry point: ``perfbench/run.py``)."""
