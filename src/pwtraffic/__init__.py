"""Traffic-distribution workbench for profiled nonlinear random matrix models."""
