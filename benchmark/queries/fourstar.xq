(: Corner case (Fig. 4(h)) — four nested descendant-or-self wildcards;
   every node at depth >= 4 is emitted once per derivation. :)
<fourstar>{$input//*//*//*//*}</fourstar>
