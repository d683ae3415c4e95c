-- Corpus fixture: one planted finding per FA code, linted against the
-- NOBENCH guide at scale 200 (`fsdm-check workload --sql`).
-- FA001 unknown-path
select did from nobench where json_exists(jdoc, '$.persno');
-- FA002 type-mismatch (a number method on the all-boolean path)
select json_value(jdoc, '$.bool.number()') from nobench;
-- FA003 dead-predicate
select did from nobench where json_exists(jdoc, '$.nested_arr[*]?(1 == 2)');
-- FA004 missing-array-step (an array step over a scalar-only path)
select did from nobench where json_exists(jdoc, '$.num[*]');
-- FA005 low-frequency-path
select json_value(jdoc, '$.sparse_017') from nobench;
-- FA006 unstreamable-path (a filter on TEXT storage: `$.nested_arr` streams,
-- each array it selects is parsed for the filter), FA007 vc-candidate
select did from nobench where json_exists(jdoc, '$.nested_arr[*]?(@ == "x")');
select json_value(jdoc, '$.str1') from nobench;
