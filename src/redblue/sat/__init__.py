"""SAT encodings, DIMACS plumbing, and solver drivers."""
