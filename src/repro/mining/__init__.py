"""Privacy-preserving data-mining applications built on randomized response.

These modules exercise the optimized RR matrices end to end in the scenarios
the paper's introduction and related work motivate: reconstructing joint
distributions of several disguised attributes, estimating itemset supports
for association-rule mining, and building decision trees from disguised data.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AssociationMiner": ".association",
    "AssociationRule": ".association",
    "ContingencyEstimator": ".contingency",
    "ContingencyTable": ".contingency",
    "DecisionTreeBuilder": ".decision_tree",
    "DecisionTreeNode": ".decision_tree",
    "ItemsetSupport": ".association",
})
