"""oafinder: open-access full-text detection with citation-impact analytics.

Subpackages/modules:
  records  - bibliographic data model, citation bins, JSONL persistence
  robot    - the web robot (one search, crawl, full-text matching)
  metrics  - percent-OA, within-issue citation advantage, cohort tables
  stats    - probit, Pearson/Student-t, signal-detection analysis
  corpus   - deterministic synthetic corpus + mock web for offline runs
  cli      - command-line pipeline (detect, analyze, audit, synth, evaluate)
"""

__version__ = "0.1.0"
