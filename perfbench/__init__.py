"""Layer-ledger benchmark: four AVOC workloads, end-to-end and per-layer."""
