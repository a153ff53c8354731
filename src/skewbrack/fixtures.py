"""Small reference actions and decorated classes used by the verify
command, the benchmark and the regression tests.

They are group and class files in the package's examples directory, read
through the command line's loaders, so they are checked as user input is.
Each call loads fresh objects.
"""

from pathlib import Path

from .cli import load_class_file, load_group_file

EXAMPLES = Path(__file__).with_name("examples")

# name -> group file.  two_sign_pairs_k5_unnamed.json is the command-line
# example two_sign_pairs_k5.json without its generator names s and t, so
# its words, and every class file printed on it, read g1 and g2.
GROUPS = {
    "sign-k1": "sign_k1.json",
    "sign-line-k2": "sign_line_k2.json",
    "neg-identity-k2": "neg_identity_k2.json",
    "swap-k2": "swap_k2.json",
    "klein-signs-k3": "klein_signs_k3.json",
    "overlap-signs-k3": "overlap_signs_k3.json",
    "two-sign-pairs-k5": "two_sign_pairs_k5_unnamed.json",
}

# name -> (group file, x, y and, where known, the bracket [x, y]).
# klein-signs-k3: a chain-level bracket that is a single wedge at g1*g2,
# while x and y average to zero.  two-sign-pairs-k5 and rotation-k5-z6:
# an invariant reduced pair whose bracket is the product volume class;
# the first rotation has order 2 and order 3 respectively.
# overlap-signs-k3: invariant reduced minimal classes whose bracket
# vanishes identically.
PAIRS = {
    "klein-signs-k3": ("klein_signs_k3.json", "class_wedge12_first.json",
                       "class_x2_wedge23_second.json", "class_neg_volume3_product.json"),
    "two-sign-pairs-k5": ("two_sign_pairs_k5_unnamed.json", "class_volume3_first.json",
                          "class_fixed_volume2_second.json", "class_wedge1245_product.json"),
    "rotation-k5-z6": ("rotation_pair_k5_z6.json", "class_volume3_first.json",
                       "class_fixed_volume2_second.json", "class_wedge1245_product.json"),
    "overlap-signs-k3": ("overlap_signs_k3.json", "class_x3_wedge12_first.json",
                         "class_x1_wedge23_second.json"),
}


def fixture_groups():
    """Name -> group, for sweep-style checks."""
    return {name: load_group_file(str(EXAMPLES / file))[0] for name, file in GROUPS.items()}


def bracket_pair(name):
    """(group, x, y) of the named pair, followed by the expected bracket
    where PAIRS gives one."""
    group_file, *class_files = PAIRS[name]
    group, _ = load_group_file(str(EXAMPLES / group_file))
    return (group, *(load_class_file(str(EXAMPLES / file), group) for file in class_files))
