"""Entity linking between relational tables and text.

Mentions in text and tuples in relational tables are projected into one
trained joint embedding space; candidate links are retrieved with a
random-projection-forest nearest-neighbor index and evaluated as
Precision@k under seen/unseen entity splits.
"""

__version__ = "0.1.0"
