"""Autonomous navigation decisions for a two-footed steel-surface robot.

The pipeline turns a raw point cloud of a steel structure into a locomotion
decision: find the dominant planar patch, trace its non-convex boundary,
test whether the robot's foot rectangle fits, compare the patch height with
the robot base, and pick the wheeled (mobile) or stepping (inch-worm)
transformation.  Companion simulators close the loop for path tracking,
magnet gap control, and the inch-worm jump sequence.

Each public name is imported from the module that defines it, for example
``from steelnav.switching import decide``.
"""

__version__ = "0.1.0"
