(: XMark Q13 — names of items registered in Australia, with their
   descriptions. Predicate-free: optimizes to an FT (Theorem 2). :)
<out>{
  for $i in /site/regions/australia/item
  return <item><name>{$i/name/text()}</name>{$i/description}</item>
}</out>
