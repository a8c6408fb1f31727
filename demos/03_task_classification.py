"""Classify free-text queries into the shipped research-goal tasks.

The classifier indexes each task description as one unit of a miniature
search engine and returns the top-ranked task for a query. Queries that
share no term with any description fall back to the first task, flagged as
low confidence.
"""

from taskrank import TaskClassifier, load_manual_map, load_tasks

framework = load_tasks()
print("task framework:")
for task in framework:
    print(f"  {task.task_id:<20} {task.title}")

classifier = TaskClassifier(framework)
queries = [
    "coronavirus origin",
    "school closures effectiveness",
    "serological tests for surveillance",
    "remdesivir clinical outcomes",
    "how long does the virus survive on surfaces",
    "xylophone recital",  # nothing task-like: falls back, low confidence
]

print("\nclassifications:")
for query in queries:
    pred = classifier.classify(query)
    flag = "  (low confidence)" if pred.low_confidence else ""
    print(f"  {query!r:<48} -> {pred.task_id}{flag}")

# The shipped manual map covers the 50 TREC-COVID topics (ids 0-49).
manual = load_manual_map(framework=framework)
per_task = {}
for assignment in manual.values():
    per_task[assignment.task_id] = per_task.get(assignment.task_id, 0) + 1
print(f"\nmanual map: {len(manual)} topics")
for task in framework:
    print(f"  {task.task_id:<20} {per_task.get(task.task_id, 0):2d} topics")
